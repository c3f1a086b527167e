//! The per-core connection tracker: Retina's subscription-specific state
//! machine (Figure 4), generalized to N concurrent subscriptions.
//!
//! ```text
//! PROBE --(protocol identified)--> [conn filter] --> PARSE | TRACK | DEL
//! PARSE --(session parsed)------> [session filter] --> deliver | DEL
//! TRACK --(terminate/expire)----> deliver connection-level data
//! ```
//!
//! Every arrow is one call of one pure transition function,
//! `phase::step`: phase, event and the connection's subscription sets
//! (`matched`, `live` = undecided, `want_parse`) in; next phase and named
//! actions (probe, parse, session-filter, emit, drop-sub, tombstone,
//! release) out. Every need — reassembly, probing, parsing, hooks — is
//! the union over the still-active subscriptions; one that falls off
//! drops its state at once, and the connection leaves with the last.
//! That is where the paper's lazy-reconstruction wins come from.
//!
//! A connection stores no packet-filter verdict beyond its sets: the
//! connection and session filters, and a swap, recompute it from the
//! connection's rebuilt first packet (`first_verdict`).
//!
//! Four files. This one is the **table driver**: the table, the closed
//! set, lookup and insert, the reassembly flush loop, expiry, drain, and
//! a swap's table pass. `phase.rs` is the **machine**: phases, probing,
//! `step` and its executors `apply` and `exit` — the only writers of a
//! phase, and `exit` the one way out of the table — and the per-core
//! stores its phases draw from: a slab of prefix buffers for records that
//! straddle segments, a pool of parsers per protocol, both handed back by
//! the phase writer. `deliver.rs`
//! is **delivery**: the slabs of per-subscription state and their output
//! lanes, the one emit path, the emission order and tallies. `flows.rs`
//! is the **flow store**: a connection's flow is an eight-byte word, the
//! embryo of its first packet until a second packet promotes it into a
//! slot of the core's store. Hooks borrow the entry's tuple and stamps and
//! the connection's flow as a [`ConnView`](crate::ConnView); the table
//! and the machine are disjoint,
//! so both are borrowed at once, also inside the table's expiry, drain
//! and swap passes — which hand what they release to the pipeline's
//! flush as they go.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

mod deliver;
mod flows;
mod phase;

use std::collections::HashMap;
use std::sync::Arc;

use retina_conntrack::{
    index_key, ConnArena, ConnEntry, ConnHandle, ConnKey, ConnTable, Dir, FirstPacket, FiveTuple,
    Reassembled, TcpFlow, TimeoutConfig,
};
use retina_filter::{ConnVerdict, FilterFns, PacketVerdict, SubscriptionSet};
use retina_nic::Mbuf;
use retina_protocols::{ParserRegistry, Session};
use retina_support::hash::FlowHashState;
use retina_telemetry::{trace::TraceConnEnd, TraceKind, Tracer};
use retina_wire::ParsedPacket;

use crate::erased::{ErasedSubscription, TrackedSlab};
use crate::pipeline::BURST_MAX;
use crate::stats::CoreStats;
use crate::subscription::Level;
use crate::util::rdtsc;
pub(crate) use deliver::Outbox;
pub use deliver::SubTally;
use deliver::TrackedRefs;
use flows::{FlowStore, FlowWord};
use phase::{Event, Masks, ParserPool, Phase, Prefixes, ProbeSet, Subs};

/// Per-connection tracker state.
struct Conn {
    /// The first packet's embryo, or the slot of the flow a second
    /// packet promoted it into.
    flow: FlowWord,
    /// Per-subscription reconstruction state, by reference into the
    /// slabs, released as soon as its subscription falls off.
    tracked: TrackedRefs,
    phase: Phase,
    /// Who is matched, undecided, parsing: what the machine moves.
    subs: Subs,
    /// Whether any subscription was fully served and retired early.
    done_any: bool,
    /// What the first packet showed the packet filter beyond the tuple:
    /// every later verdict on that packet is rebuilt from it
    /// ([`first_verdict`]).
    first: FirstPacket,
    /// Flow trace id (0 = unsampled), fixed at insert time and carried
    /// to every tracepoint and delivery this connection produces.
    trace_id: u64,
}

/// Bytes one connection-table arena slot occupies: a tracked
/// connection's state, bare SYN or not, with its identity and stamps.
/// Its flow, once promoted, lives beside it in the core's flow store.
pub const CONN_SLOT_BYTES: usize = ConnArena::<Conn>::SLOT_BYTES;

// Size budget, checked at build time: every 8 bytes of `Conn` are
// 0.85 MB at scan's 106,496-slot arena, and a built-in tracked type's
// size is what a slab slot costs per engaged connection (its vacancy
// costs no byte more than an `Option`'s).
const _: () = assert!(std::mem::size_of::<TrackedRefs>() <= 32);
const _: () = assert!(std::mem::size_of::<Conn>() <= 104);
const _: () = assert!(CONN_SLOT_BYTES <= 208);
const _: () = {
    use crate::subscribables::{
        ConnBytesTracker, ConnRecordTracker, SessionLevelTracker, TlsHandshakeData,
    };
    use retina_support::slab::Slab;
    use std::mem::size_of;
    assert!(size_of::<SessionLevelTracker<TlsHandshakeData>>() == 0);
    assert!(size_of::<ConnRecordTracker>() <= 16);
    assert!(size_of::<ConnBytesTracker>() <= 72);
    assert!(Slab::<ConnRecordTracker>::ENTRY_BYTES == size_of::<Option<ConnRecordTracker>>());
    assert!(Slab::<ConnBytesTracker>::ENTRY_BYTES == size_of::<Option<ConnBytesTracker>>());
};

/// Per-subscription spec resolved against the merged filter.
struct SubSpec {
    erased: Arc<dyn ErasedSubscription>,
    /// Protocols that can resolve this subscription's filter at the
    /// connection layer, plus the parsers its subscribable type needs.
    probe_protos: Vec<String>,
    /// The subscription's row of the run's table: where it is tallied.
    row: usize,
}

/// Resolves a subscription table against the merged `filter`: the
/// per-subscription specs, and the masks the machine reads.
fn resolve<F: FilterFns>(
    filter: &F,
    subs: &[Arc<dyn ErasedSubscription>],
) -> (Vec<SubSpec>, Masks) {
    let mut m = Masks {
        all: SubscriptionSet::first_n(subs.len()),
        ..Masks::default()
    };
    let mut specs = Vec::with_capacity(subs.len());
    for (i, sub) in subs.iter().enumerate() {
        let (bit, level) = (SubscriptionSet::single(i), sub.level());
        let pick = |on: bool| if on { bit } else { SubscriptionSet::empty() };
        m.packet |= pick(level == Level::Packet);
        m.session |= pick(level == Level::Session);
        m.stream |= pick(sub.needs_stream());
        m.post |= pick(sub.needs_packets_post_match());
        let mut probe_protos = filter.conn_protocols_for(i);
        for p in sub.parsers() {
            if !probe_protos.iter().any(|x| x == p) {
                probe_protos.push(p.to_string());
            }
        }
        let erased = Arc::clone(sub);
        specs.push(SubSpec {
            erased,
            probe_protos,
            row: i,
        });
    }
    (specs, m)
}

/// Everything of the tracker but the table and the closed set: what the
/// machine and delivery work on while an entry is borrowed from it.
struct Machine<F: FilterFns> {
    filter: Arc<F>,
    registry: ParserRegistry,
    subs: Vec<SubSpec>,
    /// What the machine reads of `subs`.
    masks: Masks,
    /// This core's tracked state, one slab per subscription (parallel
    /// to `subs`), built with the first tracked connection.
    slabs: Vec<Box<dyn TrackedSlab>>,
    /// Memoized probe-candidate unions: want-parse bitmap → index into
    /// `probe_sets` (`None`: the union names no protocol at all).
    probe_cache: HashMap<u64, Option<u32>>,
    /// The candidate sets connections probe against, one per protocol
    /// list; append-only, as probing connections index it across swaps.
    probe_sets: Vec<ProbeSet>,
    /// Prefix buffers of probing connections whose first segment left
    /// every candidate unsure, by slot.
    prefixes: Prefixes,
    /// Parsers between connections, one pool per protocol ever probed
    /// for (the probe sets index it).
    parsers: Vec<ParserPool>,
    /// Heap bytes the probing connections' prefix buffers hold, plus
    /// what idle parsers keep.
    probe_bytes: usize,
    /// The sessions a parse or a connection's end completed, on their way
    /// to the session filter: this core's one buffer, lent to each parser
    /// for the call and empty between calls.
    sessions: Vec<Session>,
    /// The flows of connections past their first packet.
    flows: FlowStore,
    profile: bool,
    /// Mirrored from the governor: while set, probe and parse work is
    /// skipped (connections hold their phase) in favour of delivery.
    shed_parsing: bool,
    /// Per-stage statistics for this core.
    stats: CoreStats,
    /// This core's delivery/discard tallies, by row of the run's table.
    tallies: Vec<SubTally>,
    /// What delivery produced since the last flush, in emission order:
    /// one subscription index per datum, the datum itself waiting in
    /// that subscription's output lane.
    order: Vec<u32>,
    /// Tracepoint sink plus the lane (RX core) this tracker writes on.
    tracer: Option<(Arc<Tracer>, usize)>,
}

impl<F: FilterFns> Machine<F> {
    /// Binds the machine to a subscription table and its merged filter:
    /// the one place the resolution is assigned. The probe memo is keyed
    /// by bitmaps of the old order, so it goes; the probe sets stay.
    fn bind(&mut self, filter: Arc<F>, subs: &[Arc<dyn ErasedSubscription>]) {
        (self.subs, self.masks) = resolve(&*filter, subs);
        self.filter = filter;
        self.probe_cache.clear();
    }

    /// Points subscription `i` at row `rows[i]` (`bind` points it at row
    /// `i`); the tallies grow to cover every row.
    fn set_rows(&mut self, rows: &[usize]) {
        for (spec, &row) in self.subs.iter_mut().zip(rows) {
            spec.row = row;
            if self.tallies.len() <= row {
                self.tallies.resize(row + 1, SubTally::default());
            }
        }
    }

    /// Exits, as `end`, each connection `walk` takes out of the table,
    /// handing what they release to `flush` every [`BURST_MAX`] of them
    /// and once at the end: a mass exit never queues in the output lanes
    /// whole.
    fn exit_all(
        &mut self,
        end: TraceConnEnd,
        mut flush: impl FnMut(Outbox<'_>),
        walk: impl FnOnce(&mut dyn FnMut(ConnEntry<Conn>)),
    ) {
        let mut exits = 0;
        walk(&mut |mut entry| {
            self.exit(&mut entry, end);
            exits += 1;
            if exits % BURST_MAX == 0 {
                flush(self.outbox());
            }
        });
        flush(self.outbox());
    }

    /// Records a tracepoint for a sampled connection (no-op otherwise).
    fn trace(&self, conn: &Conn, kind: TraceKind, a: u64, b: u64) {
        if conn.trace_id != 0 {
            self.trace_lifecycle(conn.trace_id, kind, a, b);
        }
    }

    /// Records a lifecycle tracepoint: for every flow (the flight
    /// recorder wants them), not just sampled ones.
    fn trace_lifecycle(&self, trace_id: u64, kind: TraceKind, a: u64, b: u64) {
        if let Some((t, lane)) = &self.tracer {
            t.emit(*lane, trace_id, kind, 0, a, b);
        }
    }

    /// Tracker state for the connection `mbuf` (parsed: `pkt`) opens:
    /// born tracking, with a slab slot for every subscription `verdict`
    /// engages.
    fn new_conn(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        tuple: &FiveTuple,
        verdict: ConnVerdict,
    ) -> Conn {
        self.stats.conns_created += 1;
        let matched = verdict.matched & self.masks.all;
        let live = verdict.live & self.masks.all;
        // Parsing is wanted by the undecided and by matched session-level
        // subscriptions (they consume every session).
        let want_parse = live | (matched & self.masks.session);
        let tracked = self.engage(matched | live, tuple, mbuf.timestamp_ns);
        // Fixed at insert from the symmetric RSS hash: both directions,
        // and every execution mode, derive the same trace id.
        let trace_id = self
            .tracer
            .as_ref()
            .map_or(0, |(t, _)| t.sample_flow(mbuf.rss_hash));
        self.trace_lifecycle(trace_id, TraceKind::ConnInsert, 0, 0);
        Conn {
            flow: FlowWord::default(),
            tracked,
            phase: Phase::Tracking,
            subs: Subs {
                matched,
                live,
                want_parse,
            },
            done_any: false,
            first: FirstPacket::of(pkt),
            trace_id,
        }
    }
}

/// The per-core connection tracker, serving N subscriptions in one pass.
pub struct ConnTracker<F: FilterFns> {
    table: ConnTable<Conn>,
    /// Recently-closed connections (TIME_WAIT analogue): trailing packets
    /// of a removed connection (the final ACK after FIN/FIN, the tail
    /// after a delivered TLS handshake) must not recreate state. Seeded
    /// hasher: deterministic layout keeps retain order run to run.
    closed: HashMap<ClosedKey, u64, FlowHashState>,
    machine: Machine<F>,
}

/// How long a removed connection's key stays in the closed set.
const TIME_WAIT_NS: u64 = 10_000_000_000;

/// A closed-set key: the connection key, hashed by the low half of the
/// index key its packet already carries — the fingerprint is computed
/// once per packet, in the burst's hint pass, not again per map probe.
/// Equality is the full key's. Half the word, because the other half
/// would grow every entry by eight bytes.
#[derive(Clone, Copy)]
struct ClosedKey {
    key: ConnKey,
    ikey_lo: u32,
}

impl ClosedKey {
    fn new(key: ConnKey, ikey: u64) -> Self {
        ClosedKey {
            key,
            ikey_lo: ikey as u32,
        }
    }
}

impl PartialEq for ClosedKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for ClosedKey {}

impl std::hash::Hash for ClosedKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u32(self.ikey_lo);
    }
}

const _: () = assert!(
    std::mem::size_of::<(ClosedKey, u64)>() == std::mem::size_of::<(ConnKey, u64)>(),
    "a closed-set entry costs what it did keyed by the bare ConnKey"
);

/// What the burst's hint pass staged for one packet, for
/// [`ConnTracker::process`] to consume: the connection key and index key
/// — computed once per packet — and the unverified handle the index held
/// for that key when the burst was staged.
#[derive(Debug, Clone, Copy)]
pub struct ConnHint {
    key: ConnKey,
    ikey: u64,
    handle: Option<ConnHandle>,
}

impl<F: FilterFns> ConnTracker<F> {
    /// Creates a tracker with a custom parser registry (§3.3).
    pub fn with_registry(
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        timeouts: TimeoutConfig,
        ooo_capacity: usize,
        profile: bool,
        registry: ParserRegistry,
    ) -> Self {
        assert!(
            subs.len() <= SubscriptionSet::MAX,
            "at most {} subscriptions per tracker",
            SubscriptionSet::MAX
        );
        let mut machine = Machine {
            filter: Arc::clone(&filter),
            registry,
            subs: Vec::new(),
            masks: Masks::default(),
            slabs: Vec::new(),
            probe_cache: HashMap::new(),
            probe_sets: Vec::new(),
            prefixes: Prefixes::new(),
            parsers: Vec::new(),
            probe_bytes: 0,
            sessions: Vec::new(),
            flows: FlowStore::new(ooo_capacity),
            profile,
            shed_parsing: false,
            stats: CoreStats::default(),
            tallies: vec![SubTally::default(); subs.len()],
            order: Vec::new(),
            tracer: None,
        };
        machine.bind(filter, subs);
        ConnTracker {
            table: ConnTable::new(timeouts),
            closed: HashMap::with_hasher(FlowHashState::default()),
            machine,
        }
    }

    /// Attaches a tracer; `lane` is the RX lane this tracker's core
    /// writes tracepoints on.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>, lane: usize) {
        self.machine.tracer = Some((tracer, lane));
    }

    /// Number of connections currently tracked (Figure 8's metric).
    pub fn connections(&self) -> usize {
        self.table.len()
    }

    /// Worst-case probe length ([`ConnTable::longest_chain`]).
    pub fn longest_chain(&self) -> usize {
        self.table.longest_chain()
    }

    /// The running table's packet-level subscriptions: the ones served
    /// straight off the packet filter, with no connection state.
    pub(crate) fn packet_mask(&self) -> SubscriptionSet {
        self.machine.masks.packet
    }

    /// Whether stage cycles are timed (`profile_stages`).
    pub(crate) fn profile(&self) -> bool {
        self.machine.profile
    }

    /// Per-stage statistics for this core.
    pub fn stats(&self) -> &CoreStats {
        &self.machine.stats
    }

    /// The same, for the per-packet loop to count the stages it runs
    /// itself.
    pub fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.machine.stats
    }

    /// Subscription `i`'s delivery/discard tally on this core (its
    /// row's).
    pub fn tally_mut(&mut self, i: usize) -> &mut SubTally {
        let m = &mut self.machine;
        &mut m.tallies[m.subs[i].row]
    }

    /// Points the table's subscriptions at their rows of the run's table
    /// (`rows[i]`: subscription `i`'s).
    pub(crate) fn set_rows(&mut self, rows: &[usize]) {
        self.machine.set_rows(rows);
    }

    /// The core's statistics and its tallies, by row.
    pub(crate) fn finish(self) -> (CoreStats, Vec<SubTally>) {
        (self.machine.stats, self.machine.tallies)
    }

    /// The data produced since the last flush, for the pipeline's flush
    /// to hand over in emission order — with the statistics its flush
    /// loop updates.
    pub(crate) fn outbox(&mut self) -> Outbox<'_> {
        self.machine.outbox()
    }

    /// Sets the parsing-shed flag (governor overload response, tier 1):
    /// probing and parsing connections fall back to counting-only
    /// tracking, and resume where they left off once restored.
    pub fn set_shed_parsing(&mut self, shed: bool) {
        self.machine.shed_parsing = shed;
    }

    /// Estimated bytes of live connection state (table entries, the
    /// flows of promoted connections, probe buffers, and the buffers idle
    /// parsers keep), Figure 8's memory series; the retained arena is
    /// [`ConnTracker::arena_bytes`]. O(1): flows and probe bytes are
    /// running counts, so a 100 k-connection worker can ask every
    /// maintenance tick.
    pub fn state_bytes(&self) -> usize {
        let per_conn = std::mem::size_of::<ConnEntry<Conn>>() + 64;
        let flows = self.machine.flows.slab.len() * std::mem::size_of::<TcpFlow>();
        self.table.len() * per_conn + flows + self.machine.probe_bytes
    }

    /// Bytes retained by the connection table's arena and index, and by
    /// the flow store. Capacity never shrinks, so this is
    /// the memory high-water mark the `conn_arena_bytes` gauge reports.
    pub fn arena_bytes(&self) -> usize {
        self.table.allocated_bytes() + self.machine.flows.slab.allocated_bytes()
    }

    /// The burst's hint pass for one packet the filter kept: its key and
    /// index key, computed here and nowhere else, and the handle the index
    /// holds for them now — unverified, its slot being prefetched
    /// ([`ConnTable::prefetch`]).
    #[inline]
    pub fn hint(&self, mbuf: &Mbuf, pkt: &ParsedPacket) -> ConnHint {
        let key = ConnKey::from_packet(pkt);
        let ikey = index_key(mbuf.rss_hash, &key);
        ConnHint {
            key,
            ikey,
            handle: self.table.prefetch(ikey),
        }
    }

    /// Processes one packet that the software packet filter matched for
    /// at least one subscription: `verdict` is its (matched, live), of
    /// which only a connection's first packet's is read. `hint` is what
    /// [`ConnTracker::hint`] staged for this packet; packets of the same
    /// burst may have been processed since, so its handle is verified,
    /// never trusted.
    pub fn process(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        verdict: ConnVerdict,
        hint: &ConnHint,
    ) {
        // Timed here, not in the body, so early exits (TIME_WAIT trailing
        // packets, key collisions) still land in the stage histogram.
        let t0 = self.machine.profile.then(rdtsc);
        self.machine.stats.conn_tracking.runs += 1;
        self.process_inner(mbuf, pkt, verdict, hint);
        if let Some(t) = t0 {
            let cycles = rdtsc().wrapping_sub(t);
            self.machine.stats.conn_tracking.record_cycles(cycles);
        }
    }

    /// The miss path: starts tracking the connection `pkt` opens, unless
    /// it is a trailing packet of a recently closed one.
    fn insert_conn(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        verdict: ConnVerdict,
        hint: &ConnHint,
    ) -> Option<ConnHandle> {
        let (table, closed, m) = (&mut self.table, &mut self.closed, &mut self.machine);
        let now = mbuf.timestamp_ns;
        let closed_key = ClosedKey::new(hint.key, hint.ikey);
        if let Some(&closed_at) = closed.get(&closed_key) {
            if now < closed_at.saturating_add(TIME_WAIT_NS) {
                return None; // trailing packet of a closed connection
            }
            closed.remove(&closed_key);
        }
        let tuple = FiveTuple::from_packet(pkt);
        let conn = m.new_conn(mbuf, pkt, &tuple, verdict);
        let probing = m.probing(conn.subs.want_parse);
        let handle = table.insert(hint.ikey, &hint.key, now, tuple, conn);
        m.stats.conns_peak = m.stats.conns_peak.max(table.len() as u64);
        let entry = table.entry_mut(handle).expect("inserted above");
        let probeable = probing.is_some();
        m.apply(entry, Event::Opened { probeable }, None, &mut None, probing);
        Some(handle)
    }

    fn process_inner(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        verdict: ConnVerdict,
        hint: &ConnHint,
    ) {
        let now = mbuf.timestamp_ns;
        // The one verified resolution this packet gets: the hinted
        // handle if it still holds this key's connection, else (opened or
        // closed earlier in the burst) the index is probed from the staged
        // index key's home, and the full key is verified. From here on
        // the entry is addressed by handle.
        let found = self.table.lookup(hint.ikey, &hint.key, hint.handle);
        let Some(handle) = found.or_else(|| self.insert_conn(mbuf, pkt, verdict, hint)) else {
            return;
        };

        let (table, closed, m) = (&mut self.table, &mut self.closed, &mut self.machine);
        let entry = table.entry_mut(handle).expect("handle resolved above");
        let Some(dir) = entry.tuple.dir_of(pkt) else {
            return; // key collision across address families: ignore
        };
        entry.last_seen_ns = now;
        let conn = &mut entry.value;
        if conn.trace_id != 0 {
            let d = u64::from(dir == Dir::RespToOrig);
            m.trace(conn, TraceKind::ConnUpdate, d, 0);
        }
        // Decide whether reconstructed bytes are needed *before* updating
        // the flow: Track/Dropped connections, and probe/parse ones under
        // governor shedding, get counting-only sequence tracking (§5.2)
        // unless an active subscription wants the stream.
        let app_needed =
            matches!(conn.phase, Phase::Probing(_) | Phase::Parsing { .. }) && !m.shed_parsing;
        let stream_needed = app_needed || !(conn.subs.active() & m.masks.stream).is_empty();
        let update = m
            .flows
            .update(&mut conn.flow, pkt, mbuf, dir, stream_needed);
        entry.established = update.established;

        // Subscription packet hooks: matched subscriptions that want
        // post-match packets get them; undecided ones buffer lazily.
        for i in entry.value.subs.active().iter() {
            if entry.value.subs.matched.contains(i) {
                if m.masks.post.contains(i) {
                    m.emit(entry, i, |t, slot, _conn, out| {
                        t.post_match(slot, mbuf, pkt, out);
                    });
                }
            } else if let Some(slot) = entry.value.tracked.slot(i) {
                m.slabs[i].pre_match(slot, mbuf, pkt);
            }
        }

        // Stream processing: only while the app layer still needs bytes.
        let mut leave = false;
        if stream_needed {
            match update.reassembly {
                Reassembled::InOrder => {
                    let tr = m.profile.then(rdtsc);
                    m.stats.reassembly.runs += 1;
                    if !mbuf.payload().is_empty() {
                        leave = m.stream_data(entry, dir, mbuf);
                    }
                    // Flush any buffered successors the hole-fill released.
                    while !leave {
                        let flushed = m.flows.flush(entry.value.flow, dir);
                        if flushed.is_empty() {
                            break;
                        }
                        // Each held frame carries the payload range S1 stamped.
                        for fmbuf in flushed {
                            if leave {
                                break;
                            }
                            if fmbuf.payload().is_empty() {
                                continue;
                            }
                            m.stats.reassembly.runs += 1;
                            leave = m.stream_data(entry, dir, &fmbuf);
                        }
                    }
                    if let Some(t) = tr {
                        m.stats.reassembly.record_cycles(rdtsc().wrapping_sub(t));
                    }
                }
                Reassembled::Buffered => {
                    m.stats.reassembly.runs += 1;
                    m.stats.ooo_buffered += 1;
                }
                Reassembled::Duplicate | Reassembled::OverCapacity => {}
            }
        } else if update.reassembly == Reassembled::Buffered {
            // Counting-only mode still surfaces out-of-order arrivals.
            m.stats.ooo_buffered += 1;
        }

        if leave {
            // Every subscription is finished with this connection (e.g.
            // TLS handshake delivered): removed mid-stream (§5.2).
            if let Some(mut entry) = table.remove_handle(handle) {
                m.exit(&mut entry, TraceConnEnd::CompletedEarly);
            }
            closed.insert(ClosedKey::new(hint.key, hint.ikey), now);
        } else if update.terminated {
            if let Some(mut entry) = table.remove_handle(handle) {
                closed.insert(ClosedKey::new(hint.key, hint.ikey), now);
                m.exit(&mut entry, TraceConnEnd::Terminated);
            }
        }
    }

    /// Advances simulated time: expires idle connections (§5.2), each
    /// leaving from the table's expiry pass, not via a side buffer, and
    /// hands what they release to `flush` (`Machine::exit_all`).
    pub(crate) fn advance(&mut self, now_ns: u64, flush: impl FnMut(Outbox<'_>)) {
        let table = &mut self.table;
        self.machine.exit_all(TraceConnEnd::Expired, flush, |exit| {
            table.advance(now_ns, |_key, entry| exit(entry));
        });
        self.closed
            .retain(|_, &mut t| now_ns < t.saturating_add(TIME_WAIT_NS));
    }

    /// Flushes every remaining connection (end of a run): delivers
    /// connection-level data for matched connections, handing it to
    /// `flush` as [`ConnTracker::advance`] does.
    pub(crate) fn drain(&mut self, flush: impl FnMut(Outbox<'_>)) {
        let table = &mut self.table;
        self.machine
            .exit_all(TraceConnEnd::Drained, flush, |exit| table.drain_all(exit));
    }

    /// Rebinds the tracker to a new configuration epoch at a live-swap
    /// safe point. `remap` maps each current subscription index to its
    /// index in `subs` (`None` = removed). One table pass, in the **old**
    /// index space, hands every connection the machine's `Rebound` event:
    /// removed subscriptions drain, and undecided survivors are
    /// re-filtered by the new filter's verdict on the connection's first
    /// packet. All it emits carries old indices — a promoted survivor's
    /// `on_match` as much as a removed one's `on_terminate` — and goes to
    /// `flush` in one piece, for the caller to hand to the old transport,
    /// before the slabs (and their lanes) are re-indexed. Connections
    /// nobody watches any more leave (`conns_swapped`); the rest, and the
    /// slabs, move to the new order. Tallies stay where they are, by row:
    /// `rows` points the new table at its rows.
    pub(crate) fn rebind(
        &mut self,
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        remap: &[Option<usize>],
        rows: &[usize],
        flush: impl FnOnce(Outbox<'_>),
    ) {
        let (table, closed, m) = (&mut self.table, &mut self.closed, &mut self.machine);
        assert_eq!(remap.len(), m.subs.len(), "remap covers the old table");
        let kept = pull(SubscriptionSet::first_n(subs.len()), remap);
        let mut old_of = vec![None; subs.len()];
        for (i, j) in remap.iter().enumerate() {
            if let Some(j) = *j {
                old_of[j] = Some(i);
            }
        }
        table.retain_mut(
            |entry| {
                let verdict = replay(&*filter, entry, kept, remap);
                let rebound = Event::Rebound { kept, verdict };
                if m.leaves(entry, rebound) {
                    m.exit(entry, TraceConnEnd::Swapped);
                    return false;
                }
                let conn = &mut entry.value;
                conn.tracked = conn.tracked.reindexed(&old_of);
                let s = &mut conn.subs;
                s.matched = pull(s.matched, &old_of);
                s.live = pull(s.live, &old_of);
                s.want_parse = pull(s.want_parse, &old_of);
                true
            },
            |ikey, entry| {
                closed.insert(ClosedKey::new(entry.tuple.key(), ikey), entry.last_seen_ns);
            },
        );
        flush(m.outbox());
        m.reorder(&old_of, subs);
        m.bind(filter, subs);
        m.set_rows(rows);
    }
}

/// `set` re-indexed: `k` is in the result when `from[k]` is in `set`.
fn pull(set: SubscriptionSet, from: &[Option<usize>]) -> SubscriptionSet {
    let mut pulled = SubscriptionSet::empty();
    for (k, x) in from.iter().enumerate() {
        if x.is_some_and(|x| set.contains(x)) {
            pulled.insert(k);
        }
    }
    pulled
}

/// `filter`'s verdict on the connection's first packet, rebuilt from its
/// tuple and the facts it kept ([`FirstPacket`]): the one place the
/// tracker asks the packet filter. Its frontiers are where the connection
/// and session filters resume; a connection keeps none of its own.
fn first_verdict<F: FilterFns>(filter: &F, entry: &ConnEntry<Conn>) -> PacketVerdict {
    filter.packet_filter_set(&entry.value.first.packet(&entry.tuple))
}

/// The new `filter`'s packet-layer verdict on a connection's undecided
/// survivors (`kept`), in the old index space (`remap`): its
/// [`first_verdict`].
fn replay<F: FilterFns>(
    filter: &F,
    entry: &ConnEntry<Conn>,
    kept: SubscriptionSet,
    remap: &[Option<usize>],
) -> ConnVerdict {
    if (entry.value.subs.live & kept).is_empty() {
        return ConnVerdict::default();
    }
    let verdict = first_verdict(filter, entry);
    let (matched, live) = (pull(verdict.matched, remap), pull(verdict.live, remap));
    ConnVerdict { matched, live }
}

#[cfg(test)]
mod tests {
    use super::deliver::SlotIds;
    use super::*;
    use crate::erased::{take_output, TypedSubscription};
    use crate::subscribables::{
        ConnRecord, DnsTransactionData, HttpTransactionData, TlsHandshakeData,
    };
    use retina_filter::{CompiledFilter, ProtocolRegistry};
    use retina_nic::rss::RssHasher;
    use retina_protocols::http;
    use retina_protocols::tls::build::{
        ccs_record, client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
    };
    use retina_support::bytes::Bytes;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;
    use std::collections::VecDeque;
    use std::net::SocketAddr;

    use super::phase::tests::PROMOTIONS;
    use crate::subscribables::{ConnBytes, ZcFrame};
    use retina_support::proptest::prelude::*;

    #[test]
    fn tracked_refs_keep_rank_order_across_the_spill() {
        let mut refs = TrackedRefs::none();
        assert_eq!(refs.slot(3), None);
        // Six subscriptions engage (two past the inline record).
        for (n, i) in [1usize, 3, 4, 9, 20, 63].into_iter().enumerate() {
            refs.push(i, 100 + n as u32);
        }
        assert!(matches!(refs.slots, SlotIds::Spilled(_)));
        assert_eq!(refs.slot(1), Some(100));
        assert_eq!(refs.slot(63), Some(105));
        assert_eq!(refs.slot(2), None);
        // Releasing from the middle shifts the later ids down a rank.
        assert_eq!(refs.take(4), Some(102));
        assert_eq!(refs.take(4), None);
        assert_eq!(refs.slot(9), Some(103));
        assert_eq!(refs.slot(63), Some(105));

        // The same within the inline record.
        let mut refs = TrackedRefs::none();
        for i in [0usize, 2, 5] {
            refs.push(i, i as u32 * 10);
        }
        assert!(matches!(refs.slots, SlotIds::Inline(_)));
        assert_eq!(refs.take(0), Some(0));
        assert_eq!((refs.slot(2), refs.slot(5)), (Some(20), Some(50)));
        assert_eq!(refs.take(5), Some(50));
        assert_eq!(refs.take(2), Some(20));
        assert!(refs.held.is_empty());
    }

    /// One side of a hand-built TCP conversation, 1 ms between packets.
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
            self.ts += 1_000_000;
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

    fn tls(client: &str, sni: &str, ts: u64) -> Conv {
        let mut c = Conv::open(client, "198.38.96.1:443", ts);
        c.data(
            true,
            &client_hello_record(&ClientHelloSpec {
                sni: Some(sni.to_string()),
                ciphers: vec![0x1301],
                random: [0x42; 32],
                version: 0x0303,
                alpn: None,
            }),
        );
        c.data(
            false,
            &server_hello_record(&ServerHelloSpec {
                cipher: 0x1301,
                random: [0x99; 32],
                version: 0x0303,
                supported_version: Some(0x0304),
                alpn: None,
            }),
        );
        c.data(false, &ccs_record());
        c
    }

    fn http_conv(client: &str, ts: u64) -> Conv {
        let mut c = Conv::open(client, "93.184.216.34:80", ts);
        c.data(true, &http::build_request("GET", "/", "example.com", "t/1"));
        c.data(false, &http::build_response(200, 32));
        c
    }

    fn syn(n: u32, ts: u64) -> (Bytes, u64) {
        let frame = build_tcp(&TcpSpec {
            src: SocketAddr::new(std::net::Ipv4Addr::from(0xcb00_7100 + n).into(), 40_000),
            dst: "10.1.2.3:9999".parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            ttl: 64,
            payload: &[],
        });
        (Bytes::from(frame), ts)
    }

    type Subs = Vec<Arc<dyn ErasedSubscription>>;

    fn tracker(srcs: &[&str], subs: &Subs) -> ConnTracker<CompiledFilter> {
        let filter = CompiledFilter::build_union(srcs, &ProtocolRegistry::default()).unwrap();
        ConnTracker::with_registry(
            Arc::new(filter),
            subs,
            TimeoutConfig::retina_default(),
            500,
            false,
            ParserRegistry::default(),
        )
    }

    fn feed(t: &mut ConnTracker<CompiledFilter>, packets: &[(Bytes, u64)]) {
        for (frame, ts) in packets {
            let mut mbuf = Mbuf::from_bytes(frame.clone());
            mbuf.timestamp_ns = *ts;
            let pkt = ParsedPacket::parse(mbuf.data()).unwrap();
            mbuf.rss_hash = RssHasher::symmetric().hash_packet(&pkt);
            mbuf.stamp_payload(pkt.payload_offset..pkt.payload_end);
            let verdict = t.machine.filter.packet_filter_set(&pkt);
            if !verdict.is_no_match() {
                let hint = t.hint(&mbuf, &pkt);
                let (matched, live) = (verdict.matched, verdict.live);
                t.process(&mbuf, &pkt, ConnVerdict { matched, live }, &hint);
            }
        }
    }

    /// `state_bytes()` the slow way: a walk over every table entry
    /// summing its promoted flow and its probe slot's buffer capacities,
    /// then over the idle parsers the pools keep (a vacant prefix slot
    /// holds no buffer). The running counts must equal it at every point.
    fn state_bytes_walk(t: &ConnTracker<CompiledFilter>) -> usize {
        let per_conn = std::mem::size_of::<ConnEntry<Conn>>() + 64;
        let promoted = t
            .table
            .iter()
            .filter(|e| matches!(e.value.flow, FlowWord::Stored(_)));
        let prefixes = &t.machine.prefixes;
        let held = |slot: u32| prefixes[slot].iter().map(Vec::capacity).sum::<usize>();
        let probing = prefix_slots(t).map(held);
        let idle = t.machine.parsers.iter().flat_map(|p| &p.idle);
        t.table.len() * per_conn
            + promoted.count() * std::mem::size_of::<TcpFlow>()
            + probing.sum::<usize>()
            + idle.map(|(_, kept)| kept).sum::<usize>()
    }

    /// The prefix slots the table's probing connections hold.
    fn prefix_slots(t: &ConnTracker<CompiledFilter>) -> impl Iterator<Item = u32> + '_ {
        t.table.iter().filter_map(|e| match &e.value.phase {
            Phase::Probing(probe) if probe.prefix != phase::NO_PREFIX => Some(probe.prefix),
            _ => None,
        })
    }

    /// A flush that drops what it is handed: what tracker tests drive
    /// instead of a transport.
    fn discard(outbox: Outbox<'_>) {
        outbox.drain(|_, slab, _| slab.clear_lane(usize::MAX));
    }

    /// Every slab holds exactly the states the table's connections
    /// reference, and every live prefix slot is held by exactly one
    /// probing connection: nothing leaked, nothing dangling. Returns the
    /// live count per subscription.
    fn slab_balance(t: &ConnTracker<CompiledFilter>) -> Vec<usize> {
        assert_eq!(
            t.state_bytes(),
            state_bytes_walk(t),
            "probe-byte count drifted"
        );
        let mut held: Vec<u32> = prefix_slots(t).collect();
        held.sort_unstable();
        let live: Vec<u32> = t.machine.prefixes.iter().map(|(slot, _)| slot).collect();
        assert_eq!(held, live, "every live prefix slot is held once");
        let live: Vec<usize> = t.machine.slabs.iter().map(|s| s.live()).collect();
        for (i, live) in live.iter().enumerate() {
            let held = t
                .table
                .iter()
                .filter(|e| e.value.tracked.held.contains(i))
                .count();
            assert_eq!(*live, held, "subscription {i}: slab live vs held bits");
        }
        live
    }

    #[test]
    fn slab_slots_are_recycled_and_never_leak() {
        const MS: u64 = 1_000_000;
        let subs: Subs = vec![
            Arc::new(TypedSubscription::<ConnRecord>::spec_only("conns")),
            Arc::new(TypedSubscription::<TlsHandshakeData>::spec_only("netflix")),
            Arc::new(TypedSubscription::<HttpTransactionData>::spec_only("http")),
        ];
        let mut t = tracker(&["tcp", "tls.sni ~ 'netflix'", "http"], &subs);
        assert!(t.machine.slabs.is_empty(), "no connection, no slabs");

        // 50 bare SYNs: one slot each in `conns`, one each (undecided)
        // in the two session-level subscriptions.
        let syns: Vec<_> = (0..50).map(|n| syn(n, u64::from(n) * MS)).collect();
        feed(&mut t, &syns);
        assert_eq!(slab_balance(&t), vec![50, 50, 50]);

        // finish_sub: the netflix handshake is delivered and the
        // subscription retires from its connection. kill_sub: the same
        // subscription is rejected by the session filter (other SNI) and
        // by the connection filter (HTTP); `http` dies on the TLS ones.
        let mut netflix = tls("10.0.0.1:40001", "a.nflxvideo.netflix.com", 60 * MS);
        let mut other = tls("10.0.0.2:40002", "www.example.com", 70 * MS);
        let mut web = http_conv("10.0.0.3:40003", 80 * MS);
        feed(&mut t, &netflix.out);
        feed(&mut t, &other.out);
        feed(&mut t, &web.out);
        assert_eq!(t.machine.tallies[1].delivered, 1);
        assert_eq!(t.machine.tallies[2].delivered, 1);
        assert_eq!(slab_balance(&t), vec![53, 50, 51]);
        assert!(t.machine.tallies[1].discarded >= 2 && t.machine.tallies[2].discarded >= 2);

        // finalize, by termination: the three conversations close.
        netflix.out.clear();
        other.out.clear();
        web.out.clear();
        for conv in [netflix, other, web] {
            feed(&mut t, &conv.close());
        }
        assert_eq!(slab_balance(&t), vec![50, 50, 50]);

        // finalize, by expiry: the SYNs time out; every slab empties.
        t.advance(10_000 * MS, discard);
        assert_eq!(t.connections(), 0);
        assert_eq!(slab_balance(&t), vec![0, 0, 0]);
        assert_eq!(t.machine.tallies[0].delivered, 53);

        // The freed slots are recycled: 40 new connections fit in the
        // slots the first 53 used.
        let syns: Vec<_> = (100..140).map(|n| syn(n, 11_000 * MS)).collect();
        feed(&mut t, &syns);
        assert_eq!(slab_balance(&t), vec![40, 40, 40]);
        for entry in t.table.iter() {
            for i in 0..3 {
                assert!(entry.value.tracked.slot(i).unwrap() < 53, "a slab grew");
            }
        }
        let mut web = http_conv("10.0.0.4:40004", 11_001 * MS);
        feed(&mut t, &web.out);
        assert_eq!(slab_balance(&t), vec![41, 40, 41]);

        // A swap that removes `netflix`, keeps the other two in the
        // opposite order and adds `dns`: survivors' slabs move with
        // them, the removed one's state is released, nothing leaks, and
        // every tally stays in its row: `dns` opens row 3.
        let new_subs: Subs = vec![
            Arc::clone(&subs[2]),
            Arc::clone(&subs[0]),
            Arc::new(TypedSubscription::<DnsTransactionData>::spec_only("dns")),
        ];
        let new_filter =
            CompiledFilter::build_union(&["http", "tcp", "dns"], &ProtocolRegistry::default())
                .unwrap();
        let remap = [Some(1), None, Some(0)];
        t.rebind(Arc::new(new_filter), &new_subs, &remap, &[2, 0, 3], discard);
        assert_eq!(t.machine.tallies.len(), 4);
        assert_eq!(
            t.machine.tallies[1].discarded,
            3 + 40,
            "netflix: rejected three times, undecided on 40 at the swap"
        );
        assert_eq!(t.machine.slabs.len(), 3);
        assert_eq!(slab_balance(&t), vec![41, 41, 0]);

        // Survivors' state still works under the new indices: a second
        // transaction on the open HTTP connection is delivered to `http`
        // (now subscription 0), and the record (now 1) at the drain.
        web.out.clear();
        web.data(
            true,
            &http::build_request("GET", "/2", "example.com", "t/1"),
        );
        web.data(false, &http::build_response(200, 32));
        feed(&mut t, &web.out);
        assert_eq!(t.machine.tallies[2].delivered, 3);
        t.drain(discard);
        assert_eq!(slab_balance(&t), vec![0, 0, 0]);
        assert_eq!(t.machine.tallies[0].delivered, 53 + 41);
    }

    /// A bare SYN's flow is the eight-byte embryo in its slot: a thousand
    /// of them leave the flow store empty and unallocated. The one that is
    /// answered draws exactly one slot at its second packet, which its
    /// exit hands back; the gauges count the store.
    #[test]
    fn bare_syns_build_no_flow_and_an_answered_one_builds_one() {
        const MS: u64 = 1_000_000;
        let subs: Subs = vec![Arc::new(TypedSubscription::<ConnRecord>::spec_only(
            "conns",
        ))];
        let mut t = tracker(&["tcp"], &subs);
        let syns: Vec<_> = (0..1_000).map(|n| syn(n, u64::from(n) * MS)).collect();
        feed(&mut t, &syns);
        assert_eq!(t.connections(), 1_000);
        assert_eq!(
            (
                t.machine.flows.slab.len(),
                t.machine.flows.slab.allocated_bytes()
            ),
            (0, 0)
        );
        assert_eq!(t.arena_bytes(), t.table.allocated_bytes());
        assert_eq!(t.state_bytes(), state_bytes_walk(&t));

        let mut web = http_conv("10.0.0.3:40003", 2_000 * MS);
        web.out.truncate(2);
        feed(&mut t, &web.out);
        assert_eq!(
            t.machine.flows.slab.len(),
            1,
            "the SYN-ACK promoted one flow"
        );
        let store = t.machine.flows.slab.allocated_bytes();
        assert!(store >= std::mem::size_of::<TcpFlow>());
        assert_eq!(t.arena_bytes(), t.table.allocated_bytes() + store);
        assert_eq!(t.state_bytes(), state_bytes_walk(&t));

        web.out.clear();
        feed(&mut t, &web.close());
        assert_eq!(t.connections(), 1_000);
        assert_eq!(
            t.machine.flows.slab.len(),
            0,
            "the exit handed the slot back"
        );
        assert_eq!(t.machine.flows.slab.allocated_bytes(), store);
        t.drain(discard);
        assert_eq!(t.machine.tallies[0].delivered, 1_001);
        assert_eq!(t.machine.flows.slab.len(), 0);
    }

    /// A handshake the session filter rejects goes back to the parser
    /// that built it, which returns to its pool keeping the handshake's
    /// buffers, counted in `state_bytes()`; a delivered one takes its
    /// buffers with it.
    #[test]
    fn a_rejected_session_goes_back_to_its_parser() {
        const MS: u64 = 1_000_000;
        let subs: Subs = vec![Arc::new(TypedSubscription::<TlsHandshakeData>::spec_only(
            "netflix",
        ))];
        let mut t = tracker(&["tls.sni ~ 'netflix'"], &subs);
        let kept = |t: &ConnTracker<CompiledFilter>| {
            let idle = t.machine.parsers.iter().flat_map(|p| &p.idle);
            idle.map(|(_, kept)| *kept).collect::<Vec<_>>()
        };
        feed(
            &mut t,
            &tls("10.0.0.1:40001", "a.nflxvideo.netflix.com", 0).out,
        );
        assert_eq!(t.machine.tallies[0].delivered, 1);
        let delivered = kept(&t);
        assert_eq!(delivered.len(), 1, "the parser went back to its pool");
        // The next connection draws that parser; its handshake fails the
        // filter, and the SNI and the one-cipher list stay with the parser.
        feed(&mut t, &tls("10.0.0.2:40002", "www.example.com", MS).out);
        assert_eq!(t.machine.tallies[0].discarded, 1);
        assert_eq!(kept(&t), vec![delivered[0] + "www.example.com".len() + 2]);
        assert_eq!(t.state_bytes(), state_bytes_walk(&t));
    }

    /// The running probe-buffer byte count behind the O(1)
    /// `state_bytes()` equals the walk over every entry and the pools,
    /// through every way a connection leaves `Phase::Probing`: a winner is
    /// selected, every candidate is eliminated, the prefix overflows, the
    /// connection terminates or expires mid-probe, a rebind demotes it,
    /// the table is drained. What the pools keep stays within the cap.
    #[test]
    fn state_bytes_is_a_running_count_equal_to_the_walk() {
        const MS: u64 = 1_000_000;
        let subs: Subs = vec![
            Arc::new(TypedSubscription::<TlsHandshakeData>::spec_only("tls")),
            Arc::new(TypedSubscription::<HttpTransactionData>::spec_only("http")),
        ];
        let mut t = tracker(&["tls", "http"], &subs);
        let check = |t: &ConnTracker<CompiledFilter>| {
            assert_eq!(t.state_bytes(), state_bytes_walk(t));
            t.machine.probe_bytes
        };
        assert_eq!(check(&t), 0);

        // Eight connections park a one-byte, still-ambiguous prefix.
        let request = http::build_request("GET", "/", "example.com", "t/1");
        let mut convs: Vec<Conv> = (0..8)
            .map(|n| {
                let mut c = Conv::open(&format!("10.0.1.{n}:4000{n}"), "93.184.216.34:80", n * MS);
                c.data(true, &request[..1]);
                c
            })
            .collect();
        for c in &mut convs {
            feed(&mut t, &c.out);
            c.out.clear();
        }
        let parked = check(&t);
        assert!(parked >= 8, "eight prefix buffers are held: {parked}");
        let live = t.machine.prefixes.len();
        assert_eq!(live, 8, "each parks its prefix in a slot of its own");

        // 0: HTTP wins. 1: garbage eliminates every candidate. 2: the
        // prefix overflows the probe cap. 3: closes mid-probe.
        convs[0].data(true, &request[1..]);
        convs[1].data(true, b"\x00\x01\x02 not a protocol");
        for _ in 0..9 {
            convs[2].data(true, &[b'G'; 1000]);
        }
        let closing = convs.remove(3);
        for c in &mut convs[..3] {
            feed(&mut t, &c.out);
            c.out.clear();
        }
        feed(&mut t, &closing.close());
        // The four released their prefix slots, and the bytes with them.
        let after_four = check(&t);
        assert_eq!(t.machine.prefixes.len(), live - 4);
        assert_eq!(t.machine.prefixes.slots() - t.machine.prefixes.len(), 4);
        assert!(after_four < parked, "{after_four} vs {parked}");

        // A rebind that drops `http` and keeps `tls`: the four still
        // probing (G can never be TLS, but nobody has told them) stay in
        // the table under the survivor or leave it; either way the count
        // follows.
        let new_subs: Subs = vec![Arc::clone(&subs[0])];
        let new_filter =
            CompiledFilter::build_union(&["tls"], &ProtocolRegistry::default()).unwrap();
        t.rebind(
            Arc::new(new_filter),
            &new_subs,
            &[Some(0), None],
            &[0],
            discard,
        );
        check(&t);

        // Expiry (idle past the inactivity timeout) and the final drain
        // release whatever is left: the prefix buffers are freed, the
        // parsers go to their pool, which keeps none past the cap.
        t.advance(400_000 * MS, discard);
        check(&t);
        let mut late = Conv::open("10.0.2.1:40100", "93.184.216.34:80", 500_000 * MS);
        late.data(true, &[0x16]);
        feed(&mut t, &late.out);
        assert!(check(&t) > 0);
        t.drain(discard);
        check(&t);
        assert_eq!(t.connections(), 0);
        assert!(
            t.machine.prefixes.is_empty(),
            "a prefix slot outlived the drain"
        );
        let idle = t.machine.parsers.iter().flat_map(|p| &p.idle);
        let kept: Vec<usize> = idle.map(|(_, kept)| *kept).collect();
        assert!(kept.iter().all(|&kept| kept <= phase::PROBE_BUFFER_CAP));
        assert_eq!(check(&t), kept.iter().sum::<usize>());
    }

    /// A drain or a mass expiry hands what it releases to the flush a
    /// burst at a time: the callbacks see the table's exit order, exactly
    /// what one flush of everything would hand them, and no output lane
    /// is left with room for more than a burst.
    #[test]
    fn mass_exits_are_flushed_a_burst_at_a_time() {
        const N: u32 = 20_000;
        let lane_capacity = |t: &mut ConnTracker<CompiledFilter>| {
            let lane = t.machine.slabs[0].lane();
            let lane = lane.downcast_mut::<VecDeque<(u64, ConnRecord)>>().unwrap();
            lane.capacity()
        };
        for drained in [true, false] {
            let subs: Subs = vec![Arc::new(TypedSubscription::<ConnRecord>::spec_only(
                "conns",
            ))];
            let mut t = tracker(&["tcp"], &subs);
            feed(
                &mut t,
                &(0..N).map(|n| syn(n, u64::from(n))).collect::<Vec<_>>(),
            );
            assert_eq!(t.connections(), N as usize);
            let mut one_shot: Vec<FiveTuple> = t.table.iter().map(|e| e.tuple).collect();
            let (mut seen, mut flushes) = (Vec::new(), Vec::new());
            let flush = |outbox: Outbox<'_>| {
                let before = seen.len();
                outbox.drain(|_, slab, _| seen.push(take_output::<ConnRecord>(slab).1.tuple));
                flushes.push(seen.len() - before);
            };
            if drained {
                t.drain(flush);
                assert_eq!(seen, one_shot, "drain order");
            } else {
                // Past the establish timeout: every SYN expires at once,
                // in the wheel's order.
                t.advance(60_000_000_000, flush);
                seen.sort_by_key(|t| (t.orig, t.resp));
                one_shot.sort_by_key(|t| (t.orig, t.resp));
                assert_eq!(seen, one_shot, "each record once");
            }
            assert_eq!(t.connections(), 0);
            assert!(flushes.iter().all(|&n| n <= BURST_MAX), "{flushes:?}");
            assert!(lane_capacity(&mut t) <= BURST_MAX);
        }
    }

    /// Feeds `packets` as `CorePipeline::on_burst` would: subscriptions
    /// the packet filter decides at the packet layer are the bypass's,
    /// and a packet nobody else wants never reaches the tracker.
    fn pipe(t: &mut ConnTracker<CompiledFilter>, packets: &[(Bytes, u64)]) {
        for (frame, ts) in packets {
            let mut mbuf = Mbuf::from_bytes(frame.clone());
            mbuf.timestamp_ns = *ts;
            let pkt = ParsedPacket::parse(mbuf.data()).unwrap();
            mbuf.rss_hash = RssHasher::symmetric().hash_packet(&pkt);
            mbuf.stamp_payload(pkt.payload_offset..pkt.payload_end);
            let verdict = t.machine.filter.packet_filter_set(&pkt);
            let matched = verdict.matched - t.machine.masks.packet;
            let live = verdict.live;
            if !(matched | live).is_empty() {
                let hint = t.hint(&mbuf, &pkt);
                t.process(&mbuf, &pkt, ConnVerdict { matched, live }, &hint);
            }
        }
    }

    /// The identity at any moment: every connection created is counted
    /// under exactly one outcome or still open (a tombstone was counted
    /// when it was discarded), and every discard under one cause; slabs
    /// and the probe-byte count balance.
    fn check_accounting(t: &ConnTracker<CompiledFilter>) {
        slab_balance(t);
        let open = t
            .table
            .iter()
            .filter(|e| e.value.phase.kind() != phase::Kind::Dropped);
        let s = t.stats();
        let ended = s.conns_discarded + s.conns_terminated + s.conns_expired + s.conns_drained;
        assert_eq!(
            s.conns_created,
            ended + s.conns_swapped + open.count() as u64
        );
        let causes = s.discard_conn_filter + s.discard_session_filter + s.conns_completed_early;
        assert_eq!(s.conns_discarded, causes);
    }

    /// A swap decides undecided survivors at the packet layer — it
    /// *promotes* them: each gets `on_match` at the swap, tagged with its
    /// old index, and a packet-level one is left to the packet filter's
    /// bypass (its buffered frames delivered, its state released).
    #[test]
    fn rebind_promotes_undecided_survivors_under_their_old_index() {
        let subs: Subs = vec![
            Arc::new(TypedSubscription::<TlsHandshakeData>::spec_only("tls")),
            Arc::new(TypedSubscription::<ZcFrame>::spec_only("frames")),
            Arc::new(TypedSubscription::<ConnRecord>::spec_only("web")),
        ];
        let mut t = tracker(&["tls", "http", "http"], &subs);
        // The handshake only: the port-80 connection is still probing.
        let web = Conv::open("10.0.0.9:40009", "93.184.216.34:80", 0);
        pipe(&mut t, &web.out);
        assert_eq!(slab_balance(&t), vec![1, 1, 1]);
        let promotions = PROMOTIONS.with(std::cell::Cell::get);

        // Remove `tls`, swap the other two, re-filter both to port 80.
        let new_subs: Subs = vec![Arc::clone(&subs[2]), Arc::clone(&subs[1])];
        let srcs = ["tcp.port = 80", "tcp.port = 80"];
        let filter = CompiledFilter::build_union(&srcs, &ProtocolRegistry::default()).unwrap();
        let mut tags = Vec::new();
        let remap = [None, Some(1), Some(0)];
        t.rebind(Arc::new(filter), &new_subs, &remap, &[2, 1], |outbox| {
            outbox.drain(|sub, slab, _| {
                tags.push(sub);
                take_output::<ZcFrame>(slab);
            });
        });
        assert_eq!(PROMOTIONS.with(std::cell::Cell::get), promotions + 1);
        assert_eq!(t.machine.tallies[0].discarded, 1, "tls's row");
        // `frames` released its three handshake frames under old index 1
        // (what the old transport routes to it), flushed before the slabs
        // moved, and left the connection; `web` is matched and the
        // connection stopped probing.
        assert_eq!(tags, vec![1, 1, 1]);
        assert_eq!(t.machine.tallies[1].delivered, 3);
        assert_eq!(slab_balance(&t), vec![1, 0]);
        let entry = t.table.iter().next().unwrap();
        assert_eq!(entry.value.phase.kind(), phase::Kind::Tracking);
        assert_eq!(entry.value.subs.matched, SubscriptionSet::single(0));
        check_accounting(&t);
        t.drain(discard);
        assert_eq!(t.machine.tallies[2].delivered, 1, "web's record");
        t.stats().check_conn_accounting().unwrap();
    }

    /// The subscriptions a table may hold: a name (a swap's survivor
    /// identity, so one type each) and the filters it may carry.
    fn pool(k: usize, filter: usize) -> (Arc<dyn ErasedSubscription>, &'static str) {
        fn pick(of: &[&'static str], i: usize) -> &'static str {
            of[i % of.len()]
        }
        match k {
            0 => (
                Arc::new(TypedSubscription::<ConnRecord>::spec_only("conns")),
                pick(&["tcp", "tcp.port = 443", "tcp.port = 80"], filter),
            ),
            1 => (
                Arc::new(TypedSubscription::<TlsHandshakeData>::spec_only("netflix")),
                pick(&["tls.sni ~ 'netflix'", "tls"], filter),
            ),
            2 => (
                Arc::new(TypedSubscription::<HttpTransactionData>::spec_only("http")),
                "http",
            ),
            3 => (
                Arc::new(TypedSubscription::<ZcFrame>::spec_only("frames")),
                pick(&["http", "tcp.port = 80"], filter),
            ),
            4 => (
                Arc::new(TypedSubscription::<ConnRecord>::spec_only("web")),
                pick(&["http", "tcp.port = 80", "tls"], filter),
            ),
            _ => (
                Arc::new(TypedSubscription::<ConnBytes>::spec_only("bytes")),
                pick(&["tls", "tcp.port = 443"], filter),
            ),
        }
    }

    /// A table from `(pool entry, filter)` picks, first pick of a name
    /// winning: the subscriptions, and the union filter over them.
    fn table(picks: &[(usize, usize)]) -> (Subs, Arc<CompiledFilter>) {
        let mut seen = Vec::new();
        let (mut subs, mut srcs): (Subs, Vec<&str>) = (Vec::new(), Vec::new());
        for &(k, f) in picks {
            if !seen.contains(&k) {
                seen.push(k);
                let (sub, src) = pool(k, f);
                subs.push(sub);
                srcs.push(src);
            }
        }
        let filter = CompiledFilter::build_union(&srcs, &ProtocolRegistry::default()).unwrap();
        (subs, Arc::new(filter))
    }

    /// Conversation `c`'s next scripted payload after its handshake, by
    /// step: TLS to Netflix, TLS elsewhere, HTTP, garbage, an HTTP
    /// request trickled in a byte first; `None` once the script is done.
    fn script(c: usize, step: usize) -> Option<(bool, Vec<u8>)> {
        let hello = |sni: &str| {
            client_hello_record(&ClientHelloSpec {
                sni: Some(sni.to_string()),
                ciphers: vec![0x1301],
                random: [0x42; 32],
                version: 0x0303,
                alpn: None,
            })
        };
        let server_hello = || {
            server_hello_record(&ServerHelloSpec {
                cipher: 0x1301,
                random: [0x99; 32],
                version: 0x0303,
                supported_version: Some(0x0304),
                alpn: None,
            })
        };
        let request = http::build_request("GET", "/", "example.com", "t/1");
        let response = || http::build_response(200, 32);
        let steps: Vec<(bool, Vec<u8>)> = match c % 5 {
            0 => vec![
                (true, hello("a.nflxvideo.netflix.com")),
                (false, server_hello()),
                (false, ccs_record()),
            ],
            1 => vec![
                (true, hello("www.example.com")),
                (false, server_hello()),
                (false, ccs_record()),
            ],
            2 => vec![
                (true, request.clone()),
                (false, response()),
                (true, request),
                (false, response()),
            ],
            3 => vec![(true, b"\x00\x01\x02 not a protocol".to_vec())],
            _ => vec![
                (true, request[..1].to_vec()),
                (true, request[1..].to_vec()),
                (false, response()),
            ],
        };
        steps.into_iter().nth(step)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// (b) Random event sequences — conversations opened, fed, closed
        /// and expired, and swaps that remove, reorder, add and re-filter
        /// subscriptions — through a `ConnTracker`, every transition held
        /// to the Figure-4 model as it is taken (`phase::tests::audit`),
        /// and after every step: slabs balance, `state_bytes()` equals the
        /// walk, and the connection and discard identities hold.
        #[test]
        fn random_events_hold_the_model_and_the_identities(
            first in collection::vec((0usize..6, 0usize..3), 1..4),
            ops in collection::vec(
                (0u8..6, 0usize..6, 1usize..4, collection::vec((0usize..6, 0usize..3), 1..4)),
                1..40,
            ),
        ) {
            const MS: u64 = 1_000_000;
            let (subs, filter) = table(&first);
            let mut t = ConnTracker::with_registry(
                filter, &subs, TimeoutConfig::retina_default(), 500, false, ParserRegistry::default(),
            );
            let mut names: Vec<String> = subs.iter().map(|s| s.name().to_string()).collect();
            // The run's rows, by name: a name keeps its row across swaps.
            let mut rows = names.clone();
            let mut now = 0;
            // Per conversation: the open one and its script position.
            let mut convs: Vec<Option<(Conv, usize)>> = (0..6).map(|_| None).collect();
            for (op, c, steps, picks) in ops {
                match op {
                    0 | 1 if convs[c].is_none() => {
                        let server = if c % 5 < 2 { "198.38.96.1:443" } else { "93.184.216.34:80" };
                        let conv = Conv::open(&format!("10.7.0.{c}:4100{c}"), server, now);
                        convs[c] = Some((conv, 0));
                    }
                    0..=2 => {
                        let Some((conv, at)) = convs[c].as_mut() else {
                            continue;
                        };
                        conv.ts = conv.ts.max(now);
                        for _ in 0..steps {
                            if let Some((from_client, payload)) = script(c, *at) {
                                conv.data(from_client, &payload);
                                *at += 1;
                            }
                        }
                    }
                    3 => {
                        if let Some((mut conv, _)) = convs[c].take() {
                            conv.ts = conv.ts.max(now);
                            now = conv.ts + 3 * MS;
                            pipe(&mut t, &conv.close());
                        }
                    }
                    4 => {
                        now += (c as u64 + 1) * 60_000 * MS;
                        t.advance(now, discard);
                    }
                    _ => {
                        let (new_subs, filter) = table(&picks);
                        let new_names: Vec<String> =
                            new_subs.iter().map(|s| s.name().to_string()).collect();
                        let remap: Vec<Option<usize>> =
                            names.iter().map(|n| new_names.iter().position(|m| m == n)).collect();
                        let mut map = Vec::new();
                        for n in &new_names {
                            if !rows.contains(n) {
                                rows.push(n.clone());
                            }
                            map.push(rows.iter().position(|r| r == n).unwrap());
                        }
                        t.rebind(filter, &new_subs, &remap, &map, discard);
                        names = new_names;
                    }
                }
                for (conv, _) in convs.iter_mut().flatten() {
                    pipe(&mut t, &conv.out);
                    now = now.max(conv.ts);
                    conv.out.clear();
                }
                discard(t.outbox());
                check_accounting(&t);
            }
            t.drain(discard);
            check_accounting(&t);
            prop_assert_eq!(t.connections(), 0);
            prop_assert!(slab_balance(&t).iter().all(|&n| n == 0));
            prop_assert_eq!(t.stats().check_conn_accounting(), Ok(()));
        }
    }
}
