//! The per-core pipeline: the one place the per-packet sequence lives.
//!
//! §5's run-to-completion pipeline — parse → software packet filter →
//! bypass-or-track → reassemble/probe/parse → session filter → callback —
//! is written once, in [`CorePipeline`]. The threaded worker
//! ([`crate::MultiRuntime::run`]), the stepped harness
//! ([`crate::MultiRuntime::run_stepped`]), [`crate::run_offline`] and
//! the figure binaries are *drivers*: they decide where mbufs come from
//! (a NIC burst, or [`CorePipeline::ingest_frame`] when no NIC sits in
//! front), how often [`CorePipeline::advance`] runs, and which
//! [`Transport`] carries subscription data away. Everything a proof
//! observes — digests, span trees, the accounting identity — is produced
//! here, so a proof against one driver covers the loop all of them ship.

use std::sync::Arc;

use retina_filter::{FilterFns, PacketVerdict, SubscriptionSet};
use retina_nic::{Mbuf, RssHasher};
use retina_support::bytes::Bytes;
use retina_telemetry::{TraceKind, Tracer};
use retina_wire::ParsedPacket;

use crate::config::RuntimeConfig;
use crate::erased::{ErasedOutput, ErasedSubscription};
use crate::stats::CoreStats;
use crate::subscription::Level;
use crate::tracker::{ConnTracker, SubTally};
use crate::util::rdtsc;

/// Where subscription data goes once the pipeline has produced it. One
/// implementation per driver, always statically dispatched: the
/// threaded runtime's per-core sink set (`executor::CoreSinks`), the
/// stepped harness's virtual dispatch fabric, and the offline mode's
/// direct callback ([`crate::offline::Direct`]). The first two are the
/// same sinks and the same lane protocol over two kinds of ring (see
/// [`crate::executor`]).
pub trait Transport {
    /// Hands one boxed datum of subscription `sub` to the delivery
    /// layer. `trace_id` is the originating flow's trace id (0 =
    /// unsampled).
    fn deliver(&mut self, sub: usize, trace_id: u64, out: ErasedOutput);
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
/// tracker (with its statistics and per-subscription tallies), stage
/// profiling and the RX-lane tracepoints.
pub struct CorePipeline<F: FilterFns> {
    filter: Arc<F>,
    packet_mask: SubscriptionSet,
    tracker: ConnTracker<F>,
    profile: bool,
    /// Tracepoint sink plus this core's RX lane.
    trace: Option<(Arc<Tracer>, usize)>,
    max_ts: u64,
    /// Tallies of subscriptions removed by the swaps this core adopted.
    removed: Vec<(String, SubTally)>,
}

// `parse`, `ingest_frame` and `on_packet` are `#[inline(always)]`: each
// driver's loop should compile to what the hand-written loop it replaced
// compiled to. With plain `#[inline]` they stay out of line and the repo
// benchmark's `campus_tls_offline` measures ~173 ns/pkt instead of ~154
// (eight interleaved runs each; 138 before the loops were folded).
impl<F: FilterFns> CorePipeline<F> {
    /// A pipeline serving `subs` (the table `filter` was built for).
    /// `trace` is the run's tracer and this core's RX lane.
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
            removed: Vec::new(),
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

    /// Mirrors the governor's parsing-shed flag (picked up once per
    /// burst, so shedding costs nothing on the per-packet path).
    pub fn set_shed_parsing(&mut self, shed: bool) {
        self.tracker.set_shed_parsing(shed);
    }

    /// Counts a received mbuf and parses its L2–L4 headers. `None` is a
    /// counted parse failure: the packet goes no further.
    #[inline(always)]
    pub fn parse(&mut self, mbuf: &Mbuf) -> Option<ParsedPacket> {
        let stats = &mut self.tracker.stats;
        stats.rx_packets += 1;
        stats.rx_bytes += mbuf.len() as u64;
        self.max_ts = self.max_ts.max(mbuf.timestamp_ns);
        match ParsedPacket::parse(mbuf.data()) {
            Ok(pkt) => Some(pkt),
            Err(_) => {
                stats.parse_failures += 1;
                None
            }
        }
    }

    /// Ingest for drivers with no NIC in front: wraps `frame` in an
    /// mbuf, counts and parses it, and stamps the symmetric RSS hash the
    /// virtual NIC would have — from that one parse. The connection
    /// table shards and buckets by the hash and flow sampling derives
    /// trace ids from it, so an unstamped mbuf is not an option.
    #[inline(always)]
    pub fn ingest_frame(&mut self, frame: Bytes, ts_ns: u64) -> Option<(Mbuf, ParsedPacket)> {
        let mut mbuf = Mbuf::from_bytes(frame);
        mbuf.timestamp_ns = ts_ns;
        let pkt = self.parse(&mbuf)?;
        // The symmetric key the virtual NIC installs. Built here, not
        // held in a field: it borrows static tables, and only as a local
        // does the hash compile down to lookups in them.
        mbuf.rss_hash = RssHasher::symmetric().hash_packet(&pkt);
        Some((mbuf, pkt))
    }

    /// Hands everything the tracker produced since the last flush to
    /// the transport, draining the tracker's buffer in place. Each
    /// hand-off is one callback-stage run: counted, and timed under
    /// `profile_stages`.
    fn flush<T: Transport>(&mut self, transport: &mut T) {
        let (outputs, stats) = self.tracker.pending_outputs();
        for (sub, tid, out) in outputs.drain(..) {
            let tc = self.profile.then(rdtsc);
            stats.callbacks.runs += 1;
            transport.deliver(sub as usize, tid, out);
            if let Some(t) = tc {
                stats.callbacks.record_cycles(rdtsc().wrapping_sub(t));
            }
        }
    }

    /// Runs one parsed packet through the pipeline: software packet
    /// filter (§4.1 — one pass decides every subscription), the
    /// packet-level bypass, then the connection tracker, with whatever
    /// it produced delivered before returning.
    #[inline(always)]
    pub fn on_packet<T: Transport>(&mut self, mbuf: &Mbuf, pkt: &ParsedPacket, transport: &mut T) {
        let tf = self.profile.then(rdtsc);
        let verdict = self.filter.packet_filter_set(pkt);
        self.tracker.stats.packet_filter.runs += 1;
        if let Some(t) = tf {
            let cycles = rdtsc().wrapping_sub(t);
            self.tracker.stats.packet_filter.record_cycles(cycles);
        }
        let mut tid = 0;
        if let Some((t, lane)) = &self.trace {
            // The symmetric RSS hash is on the mbuf; the sampling
            // decision is one finalizer.
            tid = t.sample_flow(mbuf.rss_hash);
            if tid != 0 {
                let (matched, live) = (verdict.matched.bits(), verdict.live.bits());
                t.emit(*lane, tid, TraceKind::PacketVerdict, 0, matched, live);
                for f in verdict.frontiers.iter() {
                    t.emit(*lane, tid, TraceKind::FilterNode, 0, u64::from(f), 0);
                }
            }
        }
        if verdict.is_no_match() {
            return;
        }

        // Bypass: packet-level subscriptions whose filter matched
        // terminally get their callback straight off the packet filter,
        // no connection state.
        for i in (verdict.matched & self.packet_mask).iter() {
            let tc = self.profile.then(rdtsc);
            if transport.deliver_from_mbuf(i, mbuf, tid) {
                self.tracker.stats.callbacks.runs += 1;
                self.tracker.sub_tallies[i].delivered += 1;
                if let Some(t) = tc {
                    let cycles = rdtsc().wrapping_sub(t);
                    self.tracker.stats.callbacks.record_cycles(cycles);
                }
            }
        }

        let verdict = PacketVerdict {
            matched: verdict.matched - self.packet_mask,
            live: verdict.live,
            frontiers: verdict.frontiers,
        };
        if verdict.is_no_match() {
            return;
        }
        self.tracker.process(mbuf, pkt, verdict);
        self.flush(transport);
    }

    /// Maintenance: expires connections idle at the simulation clock
    /// (§5.2) and delivers what they release. How often this runs is the
    /// driver's call.
    pub fn advance<T: Transport>(&mut self, transport: &mut T) {
        self.tracker.advance(self.max_ts);
        self.flush(transport);
    }

    /// End of input: flushes every still-open connection.
    pub fn drain<T: Transport>(&mut self, transport: &mut T) {
        self.tracker.drain();
        self.flush(transport);
    }

    /// Adopts a new configuration at a live-swap safe point (see
    /// [`ConnTracker::rebind`]): surviving per-connection state is
    /// rebound under the new filter, and removed subscriptions drain
    /// through `old_transport` — their data is indexed by the *old*
    /// table — with their tallies banked for [`CorePipeline::finish`].
    pub(crate) fn adopt<T: Transport>(
        &mut self,
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        remap: &[Option<usize>],
        old_transport: &mut T,
    ) {
        let banked = self.tracker.rebind(Arc::clone(&filter), subs, remap);
        self.flush(old_transport);
        self.removed.extend(banked);
        self.filter = filter;
        self.packet_mask = packet_mask(subs);
    }

    /// The core's statistics plus `(name, tally)` for every
    /// subscription it served: the current table in registration order,
    /// then the ones removed by swaps.
    pub fn finish(self) -> (CoreStats, Vec<(String, SubTally)>) {
        let mut named = self.tracker.named_tallies();
        named.extend(self.removed);
        (self.tracker.stats, named)
    }
}
