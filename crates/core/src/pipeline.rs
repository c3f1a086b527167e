//! The per-core pipeline: the one place the per-packet sequence lives.
//!
//! §5's run-to-completion pipeline — parse → software packet filter →
//! bypass-or-track → reassemble/probe/parse → session filter → callback —
//! is written once, in [`CorePipeline::on_burst`]. The threaded worker
//! ([`crate::MultiRuntime::run`]), the stepped harness
//! ([`crate::MultiRuntime::run_stepped`]), [`crate::run_offline`] and
//! the figure binaries are *drivers*: they decide where a burst's frames
//! come from (a NIC burst of stamped mbufs, or raw frames when no NIC
//! sits in front — see [`Ingress`]), how often [`CorePipeline::advance`]
//! runs, and which [`Transport`] carries subscription data away.
//! Everything a proof observes — digests, span trees, the accounting
//! identity — is produced here, so a proof against one driver covers the
//! loop all of them ship.
//!
//! The loop is **stage-major**: a burst is taken through frame prefetch,
//! parse, packet filter and a connection-table hint one *stage* at a
//! time, so the cache misses of its packets — frame bytes, index bucket,
//! connection slot — are all in flight together instead of stalling the
//! core one packet after another; only then does each packet, in arrival
//! order, do what an observer can see. DPDK's `rx_burst` (§5) exists for
//! exactly this.

use std::sync::Arc;

use retina_filter::{FilterFns, PacketVerdict, SubscriptionSet};
use retina_nic::{Mbuf, RssHasher};
use retina_support::bytes::Bytes;
use retina_telemetry::trace::TraceHwAction;
use retina_telemetry::{TraceKind, Tracer};
use retina_wire::ParsedPacket;

use crate::config::RuntimeConfig;
use crate::erased::{ErasedSubscription, TrackedSlab};
use crate::stats::CoreStats;
use crate::subscription::Level;
use crate::tracker::{ConnHint, ConnTracker, Outbox, SubTally};
use crate::util::rdtsc;

/// Frames [`CorePipeline::on_burst`] stages at a time, and the most
/// look-ahead frames it prefetches. A constant, not a knob: the burst
/// scratch is an array of this many slots inside [`CorePipeline`] itself
/// (about 11 KB).
pub const BURST_MAX: usize = 32;

/// Cache lines prefetched from the head of a frame: Ethernet + IPv4 +
/// TCP headers are 54 bytes, which straddle two lines at most heap
/// alignments.
const FRAME_LINES: usize = 2;

/// One frame as a driver hands it to [`CorePipeline::on_burst`].
pub trait Ingress {
    /// Whether a NIC sat in front of the pipeline: the mbuf arrives with
    /// its receive timestamp and symmetric RSS hash stamped and its
    /// ingest tracepoints recorded. When not, the pipeline does what the
    /// virtual NIC would have — the hash from the one parse, and the
    /// `Rx` / `HwVerdict` tracepoints of a sampled flow. The connection
    /// table shards and buckets by the hash and flow sampling derives
    /// trace ids from it, so an unstamped mbuf is not an option.
    const STAMPED: bool;

    /// The frame as an mbuf.
    fn into_mbuf(self) -> Mbuf;
}

/// A NIC-delivered mbuf (the threaded worker's RX burst).
impl Ingress for Mbuf {
    const STAMPED: bool = true;

    #[inline]
    fn into_mbuf(self) -> Mbuf {
        self
    }
}

/// An owned `(frame, timestamp-ns)` pair with no NIC in front
/// ([`crate::run_offline`]'s packet iterator).
impl Ingress for (Bytes, u64) {
    const STAMPED: bool = false;

    #[inline]
    fn into_mbuf(self) -> Mbuf {
        let mut mbuf = Mbuf::from_bytes(self.0);
        mbuf.timestamp_ns = self.1;
        mbuf
    }
}

/// A borrowed `(frame, timestamp-ns)` pair (the stepped harness's packet
/// slice): wrapping it is a refcount bump.
impl Ingress for &(Bytes, u64) {
    const STAMPED: bool = false;

    #[inline]
    fn into_mbuf(self) -> Mbuf {
        (self.0.clone(), self.1).into_mbuf()
    }
}

/// One frame of a burst on its way through the stages.
struct Staged {
    mbuf: Mbuf,
    /// How many frames this pipeline had ingested before this one: the
    /// label of the `Rx` tracepoint when no NIC recorded it.
    seq: u64,
    /// S1: the parsed headers.
    pkt: Option<ParsedPacket>,
    /// S2: the packet filter's verdict.
    verdict: PacketVerdict,
    /// S3: key, index key and table hint, for packets the connection
    /// tracker will see.
    hint: Option<ConnHint>,
}

/// Where subscription data goes once the pipeline has produced it, always
/// statically dispatched: an RX core's sink set (`executor::CoreSinks`,
/// the threaded runtime's and the stepped harness's), or the offline
/// mode's direct callback ([`crate::offline::Direct`]).
pub trait Transport {
    /// Hands subscription `sub`'s next datum — the head of the output
    /// lane in `slab`, the subscription's [`TrackedSlab`], with the
    /// originating flow's trace id (0 = unsampled) — to the delivery
    /// layer, which takes it out of the lane.
    fn deliver(&mut self, sub: usize, slab: &mut dyn TrackedSlab);
    /// Packet-level fast path: builds subscription `sub`'s datum
    /// straight from the frame and hands it on. Returns whether the
    /// frame yielded one.
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool;
}

/// The packet-level subscriptions of a table: the ones served straight
/// off the packet filter, with no connection state.
fn packet_mask(subs: &[Arc<dyn ErasedSubscription>]) -> SubscriptionSet {
    let mut mask = SubscriptionSet::empty();
    for (i, sub) in subs.iter().enumerate() {
        if sub.level() == Level::Packet {
            mask.insert(i);
        }
    }
    mask
}

/// One core's pipeline state: the merged filter, the connection
/// tracker (with its statistics and the core's tallies, one per row of
/// the run's subscription table), stage profiling and the RX-lane
/// tracepoints.
pub struct CorePipeline<F: FilterFns> {
    filter: Arc<F>,
    packet_mask: SubscriptionSet,
    tracker: ConnTracker<F>,
    profile: bool,
    /// Tracepoint sink plus this core's RX lane.
    trace: Option<(Arc<Tracer>, usize)>,
    max_ts: u64,
    /// The burst scratch: what S0–S3 of [`CorePipeline::on_burst`] stage
    /// for S4, empty between bursts. Inline in the pipeline — which all
    /// four drivers keep in a stack frame — and never on the heap: the
    /// whole `campus_filter32` benchmark run allocates 78 KB and peaks at
    /// 32 KB, so a heap scratch of this size alone would read +37 % on
    /// `heap_peak_mb`. Not a local of `on_burst` either: initialising
    /// 32 empty slots per call copies the 11 KB per four-packet burst.
    scratch: [Option<Staged>; BURST_MAX],
}

impl<F: FilterFns> CorePipeline<F> {
    /// A pipeline serving `subs` (the table `filter` was built for), a
    /// run's first table: subscription `i` counts into row `i`. `trace`
    /// is the run's tracer and this core's RX lane.
    pub fn new(
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        config: &RuntimeConfig,
        trace: Option<(Arc<Tracer>, usize)>,
    ) -> Self {
        let mut tracker = ConnTracker::with_registry(
            Arc::clone(&filter),
            subs,
            config.timeouts,
            config.ooo_capacity,
            config.profile_stages,
            config.parsers.clone(),
        );
        if let Some((t, lane)) = &trace {
            tracker.set_tracer(Arc::clone(t), *lane);
        }
        CorePipeline {
            filter,
            packet_mask: packet_mask(subs),
            tracker,
            profile: config.profile_stages,
            trace,
            max_ts: 0,
            scratch: [const { None }; BURST_MAX],
        }
    }

    /// The connection tracker (table size, state bytes, statistics).
    pub fn tracker(&self) -> &ConnTracker<F> {
        &self.tracker
    }

    /// Largest packet timestamp seen so far (the simulation clock, ns).
    pub fn max_ts(&self) -> u64 {
        self.max_ts
    }

    /// Points the table's subscriptions at their rows of the run's table
    /// (`rows[i]`: subscription `i`'s).
    pub(crate) fn set_rows(&mut self, rows: &[usize]) {
        self.tracker.set_rows(rows);
    }

    /// Mirrors the governor's parsing-shed flag (picked up once per
    /// burst, so shedding costs nothing on the per-packet path).
    pub fn set_shed_parsing(&mut self, shed: bool) {
        self.tracker.set_shed_parsing(shed);
    }

    /// Hands everything the tracker produced since the last flush to
    /// the transport, in emission order, out of the subscriptions' output
    /// lanes. Each hand-off is one callback-stage run: counted, and timed
    /// under `profile_stages`.
    fn flush<T: Transport>(outbox: Outbox<'_>, profile: bool, transport: &mut T) {
        outbox.drain(|sub, slab, stats| {
            let tc = profile.then(rdtsc);
            stats.callbacks.runs += 1;
            transport.deliver(sub, slab);
            if let Some(t) = tc {
                stats.callbacks.record_cycles(rdtsc().wrapping_sub(t));
            }
        });
    }

    /// Runs a burst of frames through the pipeline, stage-major, and
    /// returns how many of them parsed (the offline driver's sweep
    /// cadence counts those). Any number of frames may be handed over;
    /// they are staged [`BURST_MAX`] at a time. `ahead` names frames the
    /// driver will hand over *next* (at most [`BURST_MAX`] are looked
    /// at): their first touch is prefetched a burst early.
    ///
    /// * **S0** — prefetch: the reference-count line and the header
    ///   lines of every look-ahead frame and of every frame staged.
    /// * **S1** — wrap, count and parse each frame (a parse failure is
    ///   counted and goes no further) and, with no NIC in front, stamp
    ///   the symmetric RSS hash from that one parse.
    /// * **S2** — the software packet filter (§4.1 — one pass decides
    ///   every subscription) over the whole scratch, so the filter's op
    ///   stream stays hot.
    /// * **S3** — for packets bound for the connection tracker, the
    ///   connection key and index key — computed here, once — and an
    ///   *unverified* index probe that prefetches the connection's slot
    ///   ([`ConnTracker::hint`]).
    /// * **S4** — in arrival order, everything an observer can see: the
    ///   RX-lane tracepoints (from the staged verdict), the packet-level
    ///   bypass, then the connection tracker — which consumes the staged
    ///   key and verifies the staged handle rather than trusting it —
    ///   with whatever it produced delivered before the next packet.
    ///
    /// S1–S3 are pure per packet (their counters commute), S4 is the
    /// per-packet sequence unchanged, and drivers keep calling
    /// [`CorePipeline::advance`] between bursts: so however a packet
    /// sequence is cut into bursts, deliveries, digests and span trees
    /// are byte-identical.
    pub fn on_burst<'a, T: Transport, I: Ingress>(
        &mut self,
        burst: impl IntoIterator<Item = I>,
        ahead: impl IntoIterator<Item = &'a Bytes>,
        transport: &mut T,
    ) -> usize {
        for frame in ahead.into_iter().take(BURST_MAX) {
            frame.prefetch(FRAME_LINES);
        }
        let CorePipeline {
            filter,
            packet_mask,
            tracker,
            profile,
            trace,
            max_ts,
            scratch,
            ..
        } = self;
        let (packet_mask, profile) = (*packet_mask, *profile);
        let mut burst = burst.into_iter();
        let mut parsed = 0;
        loop {
            // S0: wrap the next frames (with no NIC in front that is the
            // refcount bump, prefetched a burst ago) and ask for their
            // header lines before anything reads them.
            let mut n = 0;
            for (slot, frame) in scratch.iter_mut().zip(burst.by_ref()) {
                let mbuf = frame.into_mbuf();
                mbuf.prefetch(FRAME_LINES);
                *slot = Some(Staged {
                    mbuf,
                    seq: 0,
                    pkt: None,
                    verdict: PacketVerdict::default(),
                    hint: None,
                });
                n += 1;
            }
            if n == 0 {
                break;
            }
            let staged = &mut scratch[..n];

            // S1: count, parse, stamp; a parse failure leaves the
            // scratch here. The symmetric key the virtual NIC installs
            // is built here, not held in a field: it borrows static
            // tables, and only as a local does the hash compile down to
            // lookups in them.
            let rss = RssHasher::symmetric();
            for slot in staged.iter_mut() {
                let Some(s) = slot else {
                    continue;
                };
                let stats = tracker.stats_mut();
                s.seq = stats.rx_packets;
                stats.rx_packets += 1;
                stats.rx_bytes += s.mbuf.len() as u64;
                *max_ts = (*max_ts).max(s.mbuf.timestamp_ns);
                let Ok(pkt) = ParsedPacket::parse(s.mbuf.data()) else {
                    stats.parse_failures += 1;
                    *slot = None;
                    continue;
                };
                if !I::STAMPED {
                    s.mbuf.rss_hash = rss.hash_packet(&pkt);
                }
                s.pkt = Some(pkt);
                parsed += 1;
            }

            // S2: the packet filter, over the whole scratch.
            for s in staged.iter_mut().flatten() {
                let Some(pkt) = &s.pkt else {
                    continue;
                };
                let tf = profile.then(rdtsc);
                s.verdict = filter.packet_filter_set(pkt);
                tracker.stats_mut().packet_filter.runs += 1;
                if let Some(t) = tf {
                    let cycles = rdtsc().wrapping_sub(t);
                    tracker.stats_mut().packet_filter.record_cycles(cycles);
                }
            }

            // S3: key and index key, once, and the slot on its way into
            // the cache, for every packet the tracker will see.
            for s in staged.iter_mut().flatten() {
                let Some(pkt) = &s.pkt else {
                    continue;
                };
                let tracked = (s.verdict.matched - packet_mask) | s.verdict.live;
                if !tracked.is_empty() {
                    s.hint = Some(tracker.hint(&s.mbuf, pkt));
                }
            }

            // S4: in arrival order, everything observable. Each packet is
            // worked on where it was staged and dropped as soon as it is
            // done with, as a per-packet loop would.
            for slot in staged.iter_mut() {
                let Some(Staged {
                    mbuf,
                    seq,
                    pkt: Some(pkt),
                    verdict,
                    hint,
                }) = slot
                else {
                    continue;
                };
                let mut tid = 0;
                if let Some((t, lane)) = trace {
                    // The symmetric RSS hash is on the mbuf; the sampling
                    // decision is one finalizer.
                    tid = t.sample_flow(mbuf.rss_hash);
                    if tid != 0 {
                        if !I::STAMPED {
                            // Ingest lane, as the virtual NIC records it:
                            // one Rx and one HwVerdict (RSS, queue 0 — no
                            // hardware rules in front).
                            let ingest = t.ingest_lane();
                            let len = mbuf.len() as u64;
                            t.emit(ingest, tid, TraceKind::Rx, 0, len, *seq);
                            let rss = TraceHwAction::Rss as u64;
                            t.emit(ingest, tid, TraceKind::HwVerdict, 0, rss, 0);
                        }
                        let (matched, live) = (verdict.matched.bits(), verdict.live.bits());
                        t.emit(*lane, tid, TraceKind::PacketVerdict, 0, matched, live);
                        for f in verdict.frontiers.iter() {
                            t.emit(*lane, tid, TraceKind::FilterNode, 0, u64::from(f), 0);
                        }
                    }
                }

                // Bypass: packet-level subscriptions whose filter matched
                // terminally get their callback straight off the packet
                // filter, no connection state.
                for i in (verdict.matched & packet_mask).iter() {
                    let tc = profile.then(rdtsc);
                    if transport.deliver_from_mbuf(i, mbuf, tid) {
                        tracker.stats_mut().callbacks.runs += 1;
                        tracker.tally_mut(i).delivered += 1;
                        if let Some(t) = tc {
                            let cycles = rdtsc().wrapping_sub(t);
                            tracker.stats_mut().callbacks.record_cycles(cycles);
                        }
                    }
                }

                if let Some(hint) = hint {
                    let verdict = PacketVerdict {
                        matched: verdict.matched - packet_mask,
                        live: verdict.live,
                        frontiers: std::mem::take(&mut verdict.frontiers),
                    };
                    tracker.process(mbuf, pkt, verdict, hint);
                    Self::flush(tracker.outbox(), profile, transport);
                }
                *slot = None;
            }
            if n < BURST_MAX {
                break;
            }
        }
        parsed
    }

    /// Maintenance: expires connections idle at the simulation clock
    /// (§5.2) and delivers what they release, [`BURST_MAX`] connections at
    /// a time. How often this runs is the driver's call.
    pub fn advance<T: Transport>(&mut self, transport: &mut T) {
        let profile = self.profile;
        let flush = |outbox: Outbox<'_>| Self::flush(outbox, profile, transport);
        self.tracker.advance(self.max_ts, flush);
    }

    /// End of input: flushes every still-open connection, [`BURST_MAX`]
    /// at a time.
    pub fn drain<T: Transport>(&mut self, transport: &mut T) {
        let profile = self.profile;
        self.tracker
            .drain(|outbox| Self::flush(outbox, profile, transport));
    }

    /// Adopts a new configuration at a live-swap safe point (see
    /// [`ConnTracker::rebind`]): surviving per-connection state is
    /// rebound under the new filter, and what the swap emits — removed
    /// subscriptions' drains, promoted survivors' matches — goes through
    /// `old_transport`, indexed by the *old* table, in one flush. `rows`
    /// maps the new table onto the run's rows.
    pub(crate) fn adopt<T: Transport>(
        &mut self,
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        remap: &[Option<usize>],
        rows: &[usize],
        old_transport: &mut T,
    ) {
        let profile = self.profile;
        let flush = |outbox: Outbox<'_>| Self::flush(outbox, profile, old_transport);
        self.tracker
            .rebind(Arc::clone(&filter), subs, remap, rows, flush);
        self.filter = filter;
        self.packet_mask = packet_mask(subs);
    }

    /// The core's statistics and its tallies, indexed by row of the run's
    /// subscription table (a run's first table: by registration order).
    pub fn finish(self) -> (CoreStats, Vec<SubTally>) {
        self.tracker.finish()
    }
}
