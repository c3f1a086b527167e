//! The per-core connection tracker: Retina's subscription-specific state
//! machine (Figure 4), generalized to N concurrent subscriptions.
//!
//! Every tracked connection moves through the states
//!
//! ```text
//! PROBE --(protocol identified)--> [conn filter] --> PARSE | TRACK | DEL
//! PARSE --(session parsed)------> [session filter] --> deliver | DEL
//! TRACK --(terminate/expire)----> deliver connection-level data
//! ```
//!
//! with the transitions derived automatically from each subscription's
//! level, the merged filter's layers, and each protocol module's
//! `session_match_state`/`session_nomatch_state`. The tracker is where
//! the paper's lazy-reconstruction wins come from: connections that fail
//! the connection or session filter stop consuming reassembly, parsing,
//! and memory immediately, and subscriptions that are done with a
//! connection (e.g. a delivered TLS handshake) remove it mid-stream.
//!
//! In the multi-subscription design the connection carries two
//! [`SubscriptionSet`]s — `matched` (filter fully satisfied, data being
//! delivered) and `live` (filter still undecided) — and every need
//! (reassembly, probing, parsing, per-packet hooks) is computed as the
//! **union over the still-active subscriptions**. As subscriptions fall
//! off (filter rejection or early completion), their per-connection
//! state is dropped eagerly; the connection itself leaves the table when
//! the last subscription does.
//!
//! Every per-connection fact has one owner: the table entry has the
//! tuple, the stamps and the established flag, `Conn` the flow counters
//! and the Figure-4 state, and the hooks borrow both as a [`ConnView`].
//! Stream order is the flow's reassembler's: `Machine::stream_data`
//! hands each in-order segment, by reference, to every engaged stream
//! subscription and to probe/parse. The tracker is three disjoint parts
//! — table, closed set, and the `Machine` the Figure-4 helpers mutate —
//! so an entry and the machine are borrowed together, also from inside
//! the table's expiry and drain passes.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use retina_conntrack::{
    index_key, ConnEntry, ConnHandle, ConnKey, ConnTable, Dir, FiveTuple, Reassembled, TcpFlow,
    TimeoutConfig,
};
use retina_filter::{FilterFns, Frontiers, PacketVerdict, SubscriptionSet};
use retina_nic::Mbuf;
use retina_protocols::{
    ConnParser, Direction, ParseResult, ParserRegistry, ProbeResult, Session, SessionState,
};
use retina_support::hash::FlowHashState;
use retina_telemetry::{trace::TraceConnEnd, TraceKind, Tracer};
use retina_wire::ParsedPacket;

use crate::erased::{Emitter, ErasedOutput, ErasedSubscription, TrackedSlab};
use crate::stats::CoreStats;
use crate::subscription::{ConnView, Level};
use crate::util::rdtsc;

/// Cap on bytes buffered per direction while probing for the protocol.
const PROBE_BUFFER_CAP: usize = 8 * 1024;

/// Most probe candidates one connection can hold: its alive mask is one
/// word. (The built-in registry has five protocols.)
const MAX_CANDIDATES: usize = u64::BITS as usize;

/// One probe-candidate set, shared by every connection that probes for
/// the same protocols: [`ConnParser::probe`] takes `&self` and reads no
/// per-connection state, so one never-fed prototype per protocol serves
/// them all, and a connection instantiates only the parser that wins.
struct ProbeSet {
    /// The protocol names probed for, in candidate order (at most
    /// [`MAX_CANDIDATES`]).
    protos: Vec<String>,
    /// `protos[i]`'s prototype; `None` for a name the registry does not
    /// know (never a candidate).
    prototypes: Vec<Option<Box<dyn ConnParser>>>,
    /// The alive mask a connection starts probing with: one bit per
    /// prototype.
    all_alive: u64,
}

impl ProbeSet {
    fn new(protos: Vec<String>, registry: &ParserRegistry) -> Self {
        let prototypes: Vec<_> = protos.iter().map(|p| registry.new_parser(p)).collect();
        let known = prototypes.iter().enumerate();
        let all_alive = known.fold(0, |m, (i, p)| m | (u64::from(p.is_some()) << i));
        ProbeSet {
            protos,
            prototypes,
            all_alive,
        }
    }

    /// Evaluates the candidates still alive in `ps`, in set order,
    /// against both directions' prefixes — `in_place`, the segment being
    /// delivered, standing for its direction's (see
    /// [`ProbeState::prefixes`]): the first candidate certain of the
    /// stream, if any, and the alive mask less the candidates every
    /// nonempty prefix ruled out. A panic while probing eliminates the
    /// candidate (recoverable, counted in `panics`), never the worker.
    fn probe(
        &self,
        ps: &ProbeState,
        in_place: Option<(Direction, &[u8])>,
        panics: &mut u64,
    ) -> (Option<usize>, u64) {
        let prefixes = ps.prefixes(in_place);
        let mut alive = ps.alive;
        let mut candidates = ps.alive;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let parser = self.prototypes[i]
                .as_deref()
                .expect("alive candidates have prototypes");
            let mut not_for_us = 0;
            let mut nonempty = 0;
            for (buf, d) in prefixes {
                if buf.is_empty() {
                    continue;
                }
                nonempty += 1;
                let probed =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parser.probe(buf, d)))
                        .unwrap_or_else(|_| {
                            *panics += 1;
                            ProbeResult::NotForUs
                        });
                match probed {
                    ProbeResult::Certain => return (Some(i), alive),
                    ProbeResult::NotForUs => not_for_us += 1,
                    ProbeResult::Unsure => {}
                }
            }
            if nonempty > 0 && not_for_us == nonempty {
                alive &= !(1 << i);
            }
        }
        (None, alive)
    }
}

/// Probing state: which candidates of the connection's [`ProbeSet`] are
/// still in the running, plus — only for a direction whose first
/// segment left every candidate unsure — the stream prefix so far.
struct ProbeState {
    /// Index of the candidate set in the tracker's `probe_sets`.
    set: u32,
    /// Bit `i` set: candidate `i` of the set has not been eliminated.
    alive: u64,
    buf_ts: Vec<u8>,
    buf_tc: Vec<u8>,
}

impl ProbeState {
    /// Bytes the two prefix buffers hold on the heap.
    fn buffered(&self) -> usize {
        self.buf_ts.capacity() + self.buf_tc.capacity()
    }

    /// Both directions' stream prefixes, client's first: what is
    /// buffered, except that `in_place` — a segment of a direction that
    /// has buffered nothing — is that direction's prefix where it lies
    /// in its frame.
    fn prefixes<'a>(
        &'a self,
        in_place: Option<(Direction, &'a [u8])>,
    ) -> [(&'a [u8], Direction); 2] {
        let prefix = |buf: &'a Vec<u8>, d| match in_place {
            Some((at, segment)) if at == d => (segment, d),
            _ => (buf.as_slice(), d),
        };
        [
            prefix(&self.buf_ts, Direction::ToServer),
            prefix(&self.buf_tc, Direction::ToClient),
        ]
    }

    /// Appends `data` to direction `d`'s prefix buffer — the one copy on
    /// the probe path, made only for a record that straddles segments —
    /// and returns how many heap bytes the buffer grew by.
    fn spill(&mut self, d: Direction, data: &[u8]) -> usize {
        let buf = match d {
            Direction::ToServer => &mut self.buf_ts,
            Direction::ToClient => &mut self.buf_tc,
        };
        let held = buf.capacity();
        buf.extend_from_slice(data);
        buf.capacity() - held
    }
}

/// Connection processing phase (Figure 4 states), shared by all
/// subscriptions on the connection: the probe/parse machinery runs once
/// per connection no matter how many subscriptions consume it.
enum Phase {
    /// Probing the stream prefix for the application-layer protocol.
    /// Boxed to keep [`Conn`] inside its size budget.
    Probing(Box<ProbeState>),
    /// Parsing the identified protocol.
    Parsing {
        parser: Box<dyn ConnParser>,
        service: &'static str,
    },
    /// Tracking without app-layer processing (counters + delivery hooks).
    Tracking,
    /// Every subscription fell off: retained as a tombstone so subsequent
    /// packets do no work; removed by timeout.
    Dropped,
}

/// Slot ids a connection keeps inline before spilling to the heap.
const INLINE_REFS: usize = 4;

/// The slot ids of [`TrackedRefs`], in ascending subscription order.
enum SlotIds {
    Inline([u32; INLINE_REFS]),
    Spilled(Vec<u32>),
}

/// Where a connection's per-subscription reconstruction state lives:
/// for every subscription still holding state on the connection, its
/// slot id in that subscription's [`TrackedSlab`]. A fixed inline
/// record — a new connection allocates nothing for it unless more than
/// [`INLINE_REFS`] subscriptions engage at once.
struct TrackedRefs {
    /// Subscriptions holding a slot (released eagerly when they fall
    /// off the connection).
    held: SubscriptionSet,
    /// One id per member of `held`, at the member's rank in the set.
    slots: SlotIds,
}

impl TrackedRefs {
    fn none() -> Self {
        TrackedRefs {
            held: SubscriptionSet::empty(),
            slots: SlotIds::Inline([0; INLINE_REFS]),
        }
    }

    /// Position of subscription `i`'s id among the held ones.
    fn rank(&self, i: usize) -> usize {
        (self.held & SubscriptionSet::first_n(i)).len()
    }

    /// Subscription `i`'s slot id, if it holds state here.
    fn slot(&self, i: usize) -> Option<u32> {
        let ids: &[u32] = match &self.slots {
            SlotIds::Inline(ids) => ids,
            SlotIds::Spilled(ids) => ids,
        };
        self.held.contains(i).then(|| ids[self.rank(i)])
    }

    /// Records `slot` for subscription `i`, which must be above every
    /// subscription already held (engagement runs in ascending order).
    fn push(&mut self, i: usize, slot: u32) {
        debug_assert_eq!(self.rank(i), self.held.len(), "push out of order");
        let n = self.held.len();
        self.held.insert(i);
        match &mut self.slots {
            SlotIds::Inline(ids) if n < INLINE_REFS => ids[n] = slot,
            SlotIds::Inline(ids) => {
                let mut spilled = ids.to_vec();
                spilled.push(slot);
                self.slots = SlotIds::Spilled(spilled);
            }
            SlotIds::Spilled(ids) => ids.push(slot),
        }
    }

    /// Forgets subscription `i`'s slot id and returns it for release.
    fn take(&mut self, i: usize) -> Option<u32> {
        let slot = self.slot(i)?;
        let (r, n) = (self.rank(i), self.held.len());
        match &mut self.slots {
            SlotIds::Inline(ids) => ids.copy_within(r + 1..n.min(INLINE_REFS), r),
            SlotIds::Spilled(ids) => {
                ids.remove(r);
            }
        }
        self.held.remove(i);
        Some(slot)
    }
}

/// Per-connection tracker state.
struct Conn {
    flow: TcpFlow,
    /// Per-subscription reconstruction state, by reference into the
    /// tracker's slabs; a subscription's slot is released as soon as it
    /// falls off the connection.
    tracked: TrackedRefs,
    phase: Phase,
    /// Packet-filter frontiers (opaque resume points for the conn and
    /// session sub-filters).
    frontiers: Frontiers,
    /// Active subscriptions whose filter fully matched.
    matched: SubscriptionSet,
    /// Active subscriptions whose filter is still undecided.
    live: SubscriptionSet,
    /// Active subscriptions still needing probe/parse progress: the
    /// still-live ones plus matched session-level ones whose protocol
    /// keeps producing sessions.
    want_parse: SubscriptionSet,
    /// Whether any subscription completed early on this connection.
    done_any: bool,
    /// Flow trace id (0 = unsampled), fixed at insert time and carried
    /// to every tracepoint and delivery this connection produces.
    trace_id: u64,
}

// Size budget, checked at build time: every 8 bytes of `Conn` are a
// megabyte at scan's 131,072-slot arena, and a built-in tracked type's
// size is what a slab slot costs per engaged connection.
const _: () = assert!(std::mem::size_of::<TrackedRefs>() <= 32);
const _: () = assert!(std::mem::size_of::<Conn>() <= 360);
const _: () = assert!(retina_conntrack::ConnArena::<Conn>::SLOT_BYTES <= 464);
const _: () = {
    use crate::subscribables::{
        ConnBytesTracker, ConnRecordTracker, SessionLevelTracker, TlsHandshakeData,
    };
    assert!(std::mem::size_of::<SessionLevelTracker<TlsHandshakeData>>() == 0);
    assert!(std::mem::size_of::<ConnRecordTracker>() <= 16);
    assert!(std::mem::size_of::<ConnBytesTracker>() <= 72);
};

impl Conn {
    fn active(&self) -> SubscriptionSet {
        self.matched | self.live
    }

    /// Releases subscription `i`'s tracked state, if it holds any;
    /// returns whether it did.
    fn release(&mut self, i: usize, slab: &mut dyn TrackedSlab) -> bool {
        self.tracked
            .take(i)
            .map(|slot| slab.release(slot))
            .is_some()
    }
}

/// The one emit path: runs `hook` on subscription `i`'s tracked state in
/// `slab` (if the connection still holds any), lending it the view of
/// the connection built from its table entry and an emitter that tags
/// what the hook produces `(i, trace_id)` into `outputs` and counts it
/// in `tallies[i]`.
fn emit(
    entry: &ConnEntry<Conn>,
    i: usize,
    slab: &mut dyn TrackedSlab,
    outputs: &mut Vec<(u32, u64, ErasedOutput)>,
    tallies: &mut [SubTally],
    hook: impl FnOnce(&mut dyn TrackedSlab, u32, &ConnView<'_>, &mut Emitter<'_>),
) {
    let conn = &entry.value;
    if let Some(slot) = conn.tracked.slot(i) {
        let view = ConnView {
            tuple: &entry.tuple,
            first_seen_ns: entry.created_ns,
            last_seen_ns: entry.last_seen_ns,
            established: entry.established,
            flow: &conn.flow,
        };
        let delivered = &mut tallies[i].delivered;
        let mut out = Emitter::new(outputs, delivered, i as u32, conn.trace_id);
        hook(slab, slot, &view, &mut out);
    }
}

/// Why a connection left the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FinalizeReason {
    Terminated,
    Expired,
    Drained,
}

/// Which filter stage rejected a discarded connection. Every discard is
/// attributed to exactly one cause so `conns_discarded` always equals
/// the sum of the cause counters (the drop-taxonomy invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiscardCause {
    ConnFilter,
    SessionFilter,
}

/// Disposition after handling a unit of stream data.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Disposition {
    Keep,
    /// Remove the connection now (every subscription finished with it).
    RemoveDone,
}

/// Per-subscription delivery/discard tallies for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubTally {
    /// Subscription data items delivered.
    pub delivered: u64,
    /// Connections on which the subscription was engaged (matched or
    /// live) and then rejected by a later filter layer.
    pub discarded: u64,
}

impl SubTally {
    /// Merges another core's tally into this one.
    pub fn merge(&mut self, other: &SubTally) {
        self.delivered += other.delivered;
        self.discarded += other.discarded;
    }
}

/// Per-subscription spec resolved against the merged filter.
struct SubSpec {
    erased: Arc<dyn ErasedSubscription>,
    /// Protocols that can resolve this subscription's filter at the
    /// connection layer, plus the parsers its subscribable type needs.
    probe_protos: Vec<String>,
}

/// Resolves a subscription table against the merged `filter`: the
/// per-subscription specs plus the session-level, stream-needing and
/// post-match-packet masks.
fn resolve_subs<F: FilterFns>(
    filter: &F,
    subs: &[Arc<dyn ErasedSubscription>],
) -> (
    Vec<SubSpec>,
    SubscriptionSet,
    SubscriptionSet,
    SubscriptionSet,
) {
    let mut session_mask = SubscriptionSet::empty();
    let mut stream_mask = SubscriptionSet::empty();
    let mut post_mask = SubscriptionSet::empty();
    let mut specs = Vec::with_capacity(subs.len());
    for (i, sub) in subs.iter().enumerate() {
        if sub.level() == Level::Session {
            session_mask.insert(i);
        }
        if sub.needs_stream() {
            stream_mask.insert(i);
        }
        if sub.needs_packets_post_match() {
            post_mask.insert(i);
        }
        let mut probe_protos = filter.conn_protocols_for(i);
        for p in sub.parsers() {
            if !probe_protos.iter().any(|x| x == p) {
                probe_protos.push(p.to_string());
            }
        }
        specs.push(SubSpec {
            erased: Arc::clone(sub),
            probe_protos,
        });
    }
    (specs, session_mask, stream_mask, post_mask)
}

/// Everything of the tracker but the table and the closed set: the
/// subscription table resolved against the filter, this core's tracked
/// state, the probe sets, the counters and the output buffer — what the
/// Figure-4 helpers below mutate while an entry is borrowed from the
/// table.
struct Machine<F: FilterFns> {
    filter: Arc<F>,
    registry: ParserRegistry,
    subs: Vec<SubSpec>,
    /// This core's per-connection tracked state, one slab per
    /// subscription (parallel to `subs`). Built when the first
    /// connection is tracked: a pipeline whose packets never reach the
    /// tracker (packet-level subscriptions) builds none.
    slabs: Vec<Box<dyn TrackedSlab>>,
    /// All subscription indices (guards against verdicts wider than the
    /// subscription table).
    all_mask: SubscriptionSet,
    /// Session-level subscriptions.
    session_mask: SubscriptionSet,
    /// Subscriptions whose tracked state wants the in-order stream.
    stream_mask: SubscriptionSet,
    /// Subscriptions wanting per-packet delivery after a match.
    post_mask: SubscriptionSet,
    /// Memoized probe-candidate unions: want-parse bitmap → index into
    /// `probe_sets` (`None`: the union names no protocol at all).
    probe_cache: HashMap<u64, Option<u32>>,
    /// The candidate sets connections probe against, one per distinct
    /// protocol list. Append-only: probing connections hold indices into
    /// it across a rebind, which only forgets the bitmap memo.
    probe_sets: Vec<ProbeSet>,
    /// Heap bytes held by the prefix buffers of every probing
    /// connection: grown where a buffer grows, released by
    /// [`release_probe`].
    probe_bytes: usize,
    ooo_capacity: usize,
    profile: bool,
    /// Load-shedding flag mirrored from the governor: while set, probe
    /// and parse work is skipped (connections hold their phase) so the
    /// core's cycles go to packet delivery instead of session parsing.
    shed_parsing: bool,
    /// Per-stage statistics for this core.
    stats: CoreStats,
    /// Per-subscription delivery/discard tallies for this core.
    sub_tallies: Vec<SubTally>,
    outputs: Vec<(u32, u64, ErasedOutput)>,
    /// Tracepoint sink plus the lane (RX core) this tracker writes on.
    tracer: Option<(Arc<Tracer>, usize)>,
}

/// The one place probe-buffer bytes leave the tracker's running count:
/// called with the phase a connection is leaving, whether for another
/// phase or with the connection itself.
fn release_probe(phase: &Phase, probe_bytes: &mut usize) {
    if let Phase::Probing(ps) = phase {
        *probe_bytes -= ps.buffered();
    }
}

impl<F: FilterFns> Machine<F> {
    /// Moves the connection to `next`, returning the phase it left.
    fn set_phase(&mut self, conn: &mut Conn, next: Phase) -> Phase {
        release_probe(&conn.phase, &mut self.probe_bytes);
        std::mem::replace(&mut conn.phase, next)
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

    /// [`emit`] into this core's own slab, output buffer and tallies.
    fn emit(
        &mut self,
        entry: &ConnEntry<Conn>,
        i: usize,
        hook: impl FnOnce(&mut dyn TrackedSlab, u32, &ConnView<'_>, &mut Emitter<'_>),
    ) {
        let (outputs, tallies) = (&mut self.outputs, &mut self.sub_tallies);
        emit(entry, i, &mut *self.slabs[i], outputs, tallies, hook);
    }

    /// Delivers `on_match` for subscription `i` and tags its outputs.
    fn emit_match(
        &mut self,
        entry: &ConnEntry<Conn>,
        i: usize,
        service: Option<&'static str>,
        session: Option<&Session>,
    ) {
        self.emit(entry, i, |t, slot, conn, out| {
            t.on_match(slot, conn, service, session, out);
        });
    }

    /// Drops subscription `i` from the connection after a filter
    /// rejection: state released, tally charged.
    fn kill_sub(&mut self, conn: &mut Conn, i: usize) {
        if conn.release(i, &mut *self.slabs[i]) {
            self.sub_tallies[i].discarded += 1;
        }
        conn.live.remove(i);
        conn.matched.remove(i);
        conn.want_parse.remove(i);
    }

    /// Retires subscription `i` because it is fully served (e.g. its TLS
    /// handshake was delivered and it needs nothing further).
    fn finish_sub(&mut self, conn: &mut Conn, i: usize) {
        conn.release(i, &mut *self.slabs[i]);
        conn.matched.remove(i);
        conn.want_parse.remove(i);
        conn.done_any = true;
    }

    /// Settles the connection after subscriptions changed state: keeps
    /// it (possibly demoted to plain tracking), removes it early when
    /// every subscription completed, or tombstones it when the last
    /// subscription was rejected (attributed to `cause`).
    fn settle(&mut self, conn: &mut Conn, cause: DiscardCause) -> Disposition {
        if !conn.active().is_empty() {
            if conn.want_parse.is_empty() && !matches!(conn.phase, Phase::Dropped) {
                self.set_phase(conn, Phase::Tracking);
            }
            Disposition::Keep
        } else if conn.done_any {
            Disposition::RemoveDone
        } else {
            self.stats.conns_discarded += 1;
            match cause {
                DiscardCause::ConnFilter => self.stats.discard_conn_filter += 1,
                DiscardCause::SessionFilter => self.stats.discard_session_filter += 1,
            }
            self.set_phase(conn, Phase::Dropped);
            Disposition::Keep
        }
    }

    /// The connection layer can no longer resolve anything (probe
    /// overflow, every candidate eliminated, or a parse error): all
    /// still-live subscriptions fall off, parsing stops.
    fn conn_layer_failed(&mut self, conn: &mut Conn) -> Disposition {
        for i in conn.live.iter() {
            self.kill_sub(conn, i);
        }
        conn.want_parse = SubscriptionSet::empty();
        self.settle(conn, DiscardCause::ConnFilter)
    }

    /// Applies the connection-filter verdict for a freshly identified
    /// `service`: live subscriptions either match now, stay live for the
    /// session filter, or fall off.
    fn apply_conn_verdict(&mut self, entry: &mut ConnEntry<Conn>, service: &'static str) {
        let conn = &mut entry.value;
        let v = self
            .filter
            .conn_filter_set(Some(service), &conn.frontiers, conn.live);
        self.trace(
            conn,
            TraceKind::ConnVerdict,
            v.matched.bits(),
            v.live.bits(),
        );
        let dying = conn.live - (v.matched | v.live);
        for i in dying.iter() {
            self.kill_sub(conn, i);
        }
        conn.live = v.live;
        conn.matched |= v.matched;
        // Connection-level (or packet-level) subscriptions are fully
        // decided: deliver and stop parsing on their behalf.
        let decided = v.matched - self.session_mask;
        conn.want_parse -= decided;
        for i in decided.iter() {
            self.emit_match(entry, i, Some(service), None);
        }
    }

    /// Feeds the next in-order payload segment, `mbuf.data()[payload]`,
    /// to the stream hooks of every engaged stream subscription — still
    /// undecided ones included, which decide for themselves what to
    /// hold — and through probe/parse.
    fn stream_data(
        &mut self,
        entry: &mut ConnEntry<Conn>,
        dir: Dir,
        mbuf: &Mbuf,
        payload: Range<usize>,
    ) -> Disposition {
        let conn = &mut entry.value;
        let stream_subs = conn.active() & self.stream_mask;
        for i in stream_subs.iter() {
            if let Some(slot) = conn.tracked.slot(i) {
                self.slabs[i].on_stream(slot, dir, mbuf, payload.clone());
            }
        }
        // Shed tier 1: the stream hooks above still run (packet
        // delivery work), but probe/parse make no progress.
        if self.shed_parsing && matches!(conn.phase, Phase::Probing(_) | Phase::Parsing { .. }) {
            return Disposition::Keep;
        }
        let data = &mbuf.data()[payload];
        let pdir = match dir {
            Dir::OrigToResp => Direction::ToServer,
            Dir::RespToOrig => Direction::ToClient,
        };
        match &mut conn.phase {
            Phase::Probing(ps) => {
                let buffered = match pdir {
                    Direction::ToServer => ps.buf_ts.len(),
                    Direction::ToClient => ps.buf_tc.len(),
                };
                if buffered + data.len() > PROBE_BUFFER_CAP {
                    return self.conn_layer_failed(conn);
                }
                // A direction that has buffered nothing is probed in
                // place, on the frame; one that has is probed on its
                // buffer, this segment appended.
                let in_place = (buffered == 0).then_some((pdir, data));
                if in_place.is_none() {
                    self.probe_bytes += ps.spill(pdir, data);
                }
                let set = &self.probe_sets[ps.set as usize];
                let (selected, alive) = set.probe(ps, in_place, &mut self.stats.parser_panics);
                let Some(i) = selected else {
                    // Drop eliminated candidates; fail when none remain.
                    ps.alive = alive;
                    if alive == 0 {
                        return self.conn_layer_failed(conn);
                    }
                    // Every candidate left is unsure of a record that
                    // ends in a later segment: only now is it copied.
                    if in_place.is_some() {
                        self.probe_bytes += ps.spill(pdir, data);
                    }
                    return Disposition::Keep;
                };
                // Only the winner is ever instantiated.
                let parser = self
                    .registry
                    .new_parser(&set.protos[i])
                    .expect("the prototype came from this registry");
                let service = parser.name();
                let Phase::Probing(ps) = self.set_phase(conn, Phase::Tracking) else {
                    unreachable!("matched on Phase::Probing above");
                };

                // Connection filter (Figure 4's first pseudostate)
                // over the still-live subscriptions.
                self.apply_conn_verdict(entry, service);
                let conn = &mut entry.value;
                if conn.want_parse.is_empty() {
                    // Nothing needs sessions: track, remove early, or
                    // tombstone depending on what is left.
                    return self.settle(conn, DiscardCause::ConnFilter);
                }
                self.set_phase(conn, Phase::Parsing { parser, service });
                // Feed the parser both prefixes, client's first: what
                // was buffered, and this segment where it lies.
                for (prefix, d) in ps.prefixes(in_place) {
                    if prefix.is_empty() {
                        continue;
                    }
                    let disp = self.parse_data(entry, prefix, d);
                    if disp != Disposition::Keep {
                        return disp;
                    }
                }
                Disposition::Keep
            }
            Phase::Parsing { .. } => self.parse_data(entry, data, pdir),
            Phase::Tracking | Phase::Dropped => Disposition::Keep,
        }
    }

    fn parse_data(
        &mut self,
        entry: &mut ConnEntry<Conn>,
        data: &[u8],
        pdir: Direction,
    ) -> Disposition {
        let conn = &mut entry.value;
        let Phase::Parsing { parser, service } = &mut conn.phase else {
            return Disposition::Keep;
        };
        let service = *service;
        let tp = self.profile.then(rdtsc);
        self.stats.app_parsing.runs += 1;
        // A panicking protocol parser must not take the worker core (and
        // its whole RX queue) down with it: convert the panic into a
        // recoverable parse error and let the filter decide the
        // connection's fate, exactly as for a malformed-input error.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parser.parse(data, pdir)))
                .unwrap_or_else(|_| {
                    self.stats.parser_panics += 1;
                    ParseResult::Error
                });
        if let Some(t) = tp {
            self.stats
                .app_parsing
                .record_cycles(rdtsc().wrapping_sub(t));
        }
        match result {
            ParseResult::Continue => Disposition::Keep,
            ParseResult::Done => {
                let sessions = parser.drain_sessions();
                let match_state = parser.session_match_state();
                let nomatch_state = parser.session_nomatch_state();
                if sessions.is_empty() {
                    return Disposition::Keep;
                }
                self.deliver_sessions(entry, service, &sessions);
                let conn = &mut entry.value;
                // Batch disposition. Subscriptions that matched stop
                // parsing when the protocol is done producing sessions;
                // session-level ones with nothing further to deliver are
                // fully served and retire from the connection.
                if match_state == SessionState::Remove {
                    let stop = conn.matched & conn.want_parse;
                    for i in stop.iter() {
                        conn.want_parse.remove(i);
                        if self.session_mask.contains(i)
                            && !self.post_mask.contains(i)
                            && !self.stream_mask.contains(i)
                        {
                            self.finish_sub(conn, i);
                        }
                    }
                }
                // Still-live subscriptions that passed nothing in a
                // nonempty batch failed the session filter.
                if nomatch_state == SessionState::Remove {
                    for i in conn.live.iter() {
                        self.kill_sub(conn, i);
                    }
                }
                self.settle(conn, DiscardCause::SessionFilter)
            }
            ParseResult::Error => self.conn_layer_failed(conn),
        }
    }

    /// The session filter (Figure 4's second pseudostate) and delivery
    /// for each parsed session, whether the parser just produced it or
    /// the connection's end drained it: matched session-level
    /// subscriptions receive every session the protocol produces, then
    /// the still-live subscriptions whose session predicate passed get
    /// their first full match.
    fn deliver_sessions(
        &mut self,
        entry: &mut ConnEntry<Conn>,
        service: &'static str,
        sessions: &[Session],
    ) {
        for session in sessions {
            let conn = &mut entry.value;
            let ts = self.profile.then(rdtsc);
            self.stats.session_filter.runs += 1;
            let hits = self
                .filter
                .session_filter_set(session, &conn.frontiers, conn.live);
            if let Some(t) = ts {
                self.stats
                    .session_filter
                    .record_cycles(rdtsc().wrapping_sub(t));
            }
            self.trace(
                conn,
                TraceKind::SessionVerdict,
                hits.bits(),
                conn.live.bits(),
            );
            let sess_matched = conn.matched & self.session_mask;
            conn.live -= hits;
            conn.matched |= hits;
            for i in sess_matched.iter().chain(hits.iter()) {
                self.emit_match(entry, i, Some(service), Some(session));
            }
        }
    }

    /// Finalizes a connection that terminated, expired, or was drained.
    ///
    /// Discarded tombstones (`Phase::Dropped`) were already attributed
    /// at discard time; counting them again here would double-book the
    /// connection and break the exclusive-outcome invariant.
    fn finalize(&mut self, mut entry: ConnEntry<Conn>, reason: FinalizeReason) {
        release_probe(&entry.value.phase, &mut self.probe_bytes);
        let was_discarded = matches!(entry.value.phase, Phase::Dropped);
        // Drain partial sessions (e.g. an unanswered DNS query).
        if let Phase::Parsing { parser, service } = &mut entry.value.phase {
            let (service, sessions) = (*service, parser.drain_sessions());
            self.deliver_sessions(&mut entry, service, &sessions);
        }
        for i in entry.value.matched.iter() {
            self.emit(&entry, i, |t, slot, conn, out| {
                t.on_terminate(slot, conn, out);
            });
        }
        // The connection is leaving the table: its slab slots go back.
        let conn = &mut entry.value;
        for i in conn.tracked.held.iter() {
            conn.release(i, &mut *self.slabs[i]);
        }
        if !was_discarded {
            match reason {
                FinalizeReason::Terminated => self.stats.conns_terminated += 1,
                FinalizeReason::Expired => self.stats.conns_expired += 1,
                FinalizeReason::Drained => self.stats.conns_drained += 1,
            }
        }
        let end = match reason {
            FinalizeReason::Terminated => TraceConnEnd::Terminated,
            FinalizeReason::Expired => TraceConnEnd::Expired,
            FinalizeReason::Drained => TraceConnEnd::Drained,
        };
        self.trace_lifecycle(conn.trace_id, TraceKind::ConnExpire, end as u64, 0);
    }

    /// The probe-candidate set for a want-parse set: each
    /// subscription's conn-layer filter protocols plus its subscribable
    /// type's parsers, deduplicated in subscription order. `None` when
    /// that union names no protocol. Memoized — distinct want-parse sets
    /// are few (bounded by packet-filter outcomes), connections are many
    /// — and sets are shared between bitmaps (and across rebinds) that
    /// come to the same protocol list.
    fn probe_set_for(&mut self, want: SubscriptionSet) -> Option<u32> {
        if let Some(cached) = self.probe_cache.get(&want.bits()) {
            return *cached;
        }
        let mut protos: Vec<String> = Vec::new();
        for i in want.iter() {
            for p in &self.subs[i].probe_protos {
                if !protos.contains(p) && protos.len() < MAX_CANDIDATES {
                    protos.push(p.clone());
                }
            }
        }
        let set = (!protos.is_empty()).then(|| {
            let known = self.probe_sets.iter().position(|s| s.protos == protos);
            known.unwrap_or_else(|| {
                self.probe_sets.push(ProbeSet::new(protos, &self.registry));
                self.probe_sets.len() - 1
            }) as u32
        });
        self.probe_cache.insert(want.bits(), set);
        set
    }

    /// Tracker state for the connection `mbuf` opens, with a slab slot
    /// taken for every subscription `verdict` engages.
    fn new_conn(&mut self, mbuf: &Mbuf, tuple: &FiveTuple, verdict: PacketVerdict) -> Conn {
        let now = mbuf.timestamp_ns;
        self.stats.conns_created += 1;
        let matched = verdict.matched & self.all_mask;
        let mut live = verdict.live & self.all_mask;
        // Parsing is needed by undecided subscriptions and by
        // matched session-level ones (they consume every session).
        let mut want_parse = live | (matched & self.session_mask);
        if self.slabs.is_empty() {
            self.slabs = self.subs.iter().map(|s| s.erased.new_slab()).collect();
        }
        let mut tracked = TrackedRefs::none();
        for i in (matched | live).iter() {
            tracked.push(i, self.slabs[i].insert(tuple, now));
        }
        // With nothing to probe for: carried by the matched
        // subscriptions, or a tombstone from birth.
        let idle = if matched.is_empty() {
            Phase::Dropped
        } else {
            Phase::Tracking
        };
        let phase;
        if want_parse.is_empty() {
            phase = idle;
        } else if let Some(set) = self.probe_set_for(want_parse) {
            phase = Phase::Probing(Box::new(ProbeState {
                set,
                alive: self.probe_sets[set as usize].all_alive,
                buf_ts: Vec::new(),
                buf_tc: Vec::new(),
            }));
        } else {
            // Degraded path: no parser can ever resolve the
            // still-live filters, so those subscriptions are
            // born dead; matched ones carry the connection.
            for i in live.iter() {
                if let Some(slot) = tracked.take(i) {
                    self.slabs[i].release(slot);
                    self.sub_tallies[i].discarded += 1;
                }
            }
            live = SubscriptionSet::empty();
            want_parse = SubscriptionSet::empty();
            phase = idle;
        }
        if matches!(phase, Phase::Dropped) {
            // The filter can never match this connection for anyone:
            // born a tombstone. Attribute it now — finalize() skips
            // dropped connections.
            self.stats.conns_discarded += 1;
            self.stats.discard_conn_filter += 1;
        }
        // The flow trace id is fixed at insert: derived from the
        // symmetric RSS hash on the mbuf, so both directions (and
        // every execution mode) derive the same id.
        let trace_id = self
            .tracer
            .as_ref()
            .map_or(0, |(t, _)| t.sample_flow(mbuf.rss_hash));
        self.trace_lifecycle(trace_id, TraceKind::ConnInsert, 0, 0);
        Conn {
            flow: TcpFlow::new(self.ooo_capacity),
            tracked,
            phase,
            frontiers: verdict.frontiers,
            matched,
            live,
            want_parse,
            done_any: false,
            trace_id,
        }
    }
}

/// The per-core connection tracker, serving N subscriptions in one pass.
pub struct ConnTracker<F: FilterFns> {
    table: ConnTable<Conn>,
    /// Recently-closed connections (TIME_WAIT analogue): trailing packets
    /// of a removed connection (e.g. the final ACK after FIN/FIN, or the
    /// encrypted tail after a delivered TLS handshake) must not recreate
    /// state. Seeded in-tree hasher: probed once per packet on the miss
    /// path, and deterministic layout keeps retain order identical
    /// across runs.
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
        let (specs, session_mask, stream_mask, post_mask) = resolve_subs(&*filter, subs);
        ConnTracker {
            table: ConnTable::new(timeouts),
            closed: HashMap::with_hasher(FlowHashState::default()),
            machine: Machine {
                slabs: Vec::new(),
                filter,
                registry,
                all_mask: SubscriptionSet::first_n(specs.len()),
                session_mask,
                stream_mask,
                post_mask,
                probe_cache: HashMap::new(),
                probe_sets: Vec::new(),
                probe_bytes: 0,
                ooo_capacity,
                profile,
                shed_parsing: false,
                stats: CoreStats::default(),
                sub_tallies: vec![SubTally::default(); specs.len()],
                outputs: Vec::new(),
                tracer: None,
                subs: specs,
            },
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

    /// Worst-case probe length of the connection table (see
    /// [`ConnTable::longest_chain`]).
    pub fn longest_chain(&self) -> usize {
        self.table.longest_chain()
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

    /// Per-subscription delivery/discard tallies for this core, in
    /// registration order.
    pub fn sub_tallies_mut(&mut self) -> &mut [SubTally] {
        &mut self.machine.sub_tallies
    }

    /// `(name, tally)` of every subscription in the current table, in
    /// registration order.
    pub(crate) fn named_tallies(&self) -> Vec<(String, SubTally)> {
        let m = &self.machine;
        let names = m.subs.iter().map(|s| s.erased.name().to_string());
        names.zip(m.sub_tallies.iter().copied()).collect()
    }

    /// The subscription data produced since the last drain, each datum
    /// tagged with its subscription index and the originating flow's
    /// trace id (0 = unsampled), for the caller to drain in place (the
    /// buffer keeps its capacity from flush to flush) — alongside the
    /// core's statistics, which the flush loop updates as it delivers.
    pub fn pending_outputs(&mut self) -> (&mut Vec<(u32, u64, ErasedOutput)>, &mut CoreStats) {
        (&mut self.machine.outputs, &mut self.machine.stats)
    }

    /// Sets the parsing-shed flag (governor overload response, tier 1).
    /// While shed, probing and parsing connections stop consuming
    /// reassembly and parser cycles — they keep counting-only sequence
    /// tracking and resume where they left off once restored.
    pub fn set_shed_parsing(&mut self, shed: bool) {
        self.machine.shed_parsing = shed;
    }

    /// Whether session-parsing work is currently shed.
    pub fn shed_parsing(&self) -> bool {
        self.machine.shed_parsing
    }

    /// Estimated bytes of connection state in memory (live table
    /// entries plus probe buffers), for the Figure 8 memory series.
    /// This is the *live* series; the retained arena footprint is
    /// [`ConnTracker::arena_bytes`]. O(1): the probe-buffer bytes are a
    /// running count, so the threaded worker's maintenance path can ask
    /// at a 100 k-connection working set.
    pub fn state_bytes(&self) -> usize {
        let per_conn = std::mem::size_of::<ConnEntry<Conn>>() + 64;
        self.table.len() * per_conn + self.machine.probe_bytes
    }

    /// Bytes retained by the connection table's arena and shard
    /// indexes. Capacity never shrinks, so this is the memory
    /// high-water mark the `conn_arena_bytes` gauge reports.
    pub fn arena_bytes(&self) -> usize {
        self.table.allocated_bytes()
    }

    /// The burst's hint pass for one packet the packet filter kept: its
    /// connection key and index key, computed here and nowhere else, and
    /// whatever handle the index holds for them right now — unverified,
    /// with the slot behind it on its way into the cache
    /// ([`ConnTable::prefetch`]).
    #[inline]
    pub fn hint(&self, mbuf: &Mbuf, pkt: &ParsedPacket) -> ConnHint {
        let key = ConnKey::from_packet(pkt);
        let ikey = index_key(mbuf.rss_hash, &key);
        ConnHint {
            key,
            ikey,
            handle: self.table.prefetch(mbuf.rss_hash, ikey),
        }
    }

    /// Processes one packet that the software packet filter matched for
    /// at least one subscription. `hint` is what [`ConnTracker::hint`]
    /// staged for this packet; packets of the same burst may have been
    /// processed since, so its handle is verified, never trusted.
    pub fn process(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        verdict: PacketVerdict,
        hint: &ConnHint,
    ) {
        // Time the whole tracker pass here (not in the body) so early
        // exits — TIME_WAIT trailing packets, key collisions — still
        // land in the stage histogram.
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
        verdict: PacketVerdict,
        hint: &ConnHint,
    ) -> Option<ConnHandle> {
        let (table, closed, m) = (&mut self.table, &mut self.closed, &mut self.machine);
        let now = mbuf.timestamp_ns;
        let closed_key = ClosedKey::new(hint.key, hint.ikey);
        match closed.get(&closed_key) {
            Some(&closed_at) if now < closed_at.saturating_add(TIME_WAIT_NS) => {
                return None; // trailing packet of a closed connection
            }
            Some(_) => {
                closed.remove(&closed_key);
            }
            None => {}
        }
        let tuple = FiveTuple::from_packet(pkt);
        let conn = m.new_conn(mbuf, &tuple, verdict);
        // Filter fully decided at the packet layer for these
        // subscriptions: once the entry exists, emit whatever they have
        // ready (Figure 4a's "run callback"). Session-level ones wait
        // for sessions.
        let decided = conn.matched - m.session_mask;
        let handle = table.insert(mbuf.rss_hash, hint.ikey, &hint.key, now, tuple, conn);
        m.stats.conns_peak = m.stats.conns_peak.max(table.len() as u64);
        if !decided.is_empty() {
            let entry = table.entry_mut(handle).expect("inserted above");
            for i in decided.iter() {
                m.emit_match(entry, i, None, None);
            }
        }
        Some(handle)
    }

    fn process_inner(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        verdict: PacketVerdict,
        hint: &ConnHint,
    ) {
        let now = mbuf.timestamp_ns;
        // The one verified resolution this packet gets. The hinted
        // handle, when it still holds this key's connection, is the
        // answer with no index probe at all; otherwise (a new
        // connection, or one a packet earlier in the burst opened or
        // closed) the NIC's symmetric RSS hash — both directions stamp
        // the same value — picks the shard, the staged index key the
        // bucket, and the full key is verified against the entry. From
        // here on the entry is addressed by handle.
        let found = self
            .table
            .lookup(mbuf.rss_hash, hint.ikey, &hint.key, hint.handle);
        let handle = match found {
            Some(handle) => handle,
            None => match self.insert_conn(mbuf, pkt, verdict, hint) {
                Some(handle) => handle,
                None => return,
            },
        };

        let (table, closed, m) = (&mut self.table, &mut self.closed, &mut self.machine);
        let entry = table.entry_mut(handle).expect("handle resolved above");
        let Some(dir) = entry.tuple.dir_of(pkt) else {
            return; // key collision across address families: ignore
        };
        entry.last_seen_ns = now;
        let conn = &mut entry.value;
        if conn.trace_id != 0 {
            let d = match dir {
                Dir::OrigToResp => 0,
                Dir::RespToOrig => 1,
            };
            m.trace(conn, TraceKind::ConnUpdate, d, 0);
        }
        // Decide whether reconstructed bytes are still needed *before*
        // updating the flow: Track/Dropped connections get counting-only
        // sequence tracking, never buffering (§5.2), unless an active
        // subscription wants the stream. Under governor shedding,
        // probe/parse work is skipped too — those connections degrade to
        // counting-only until fidelity is restored.
        let app_needed =
            matches!(conn.phase, Phase::Probing(_) | Phase::Parsing { .. }) && !m.shed_parsing;
        let stream_needed = app_needed || !(conn.active() & m.stream_mask).is_empty();
        let update = conn.flow.update(pkt, mbuf, dir, stream_needed);
        entry.established = conn.flow.established;

        // Subscription packet hooks: matched subscriptions that want
        // post-match packets get them; undecided ones buffer lazily.
        for i in entry.value.active().iter() {
            if entry.value.matched.contains(i) {
                if m.post_mask.contains(i) {
                    m.emit(entry, i, |t, slot, _conn, out| {
                        t.post_match(slot, mbuf, pkt, out);
                    });
                }
            } else if let Some(slot) = entry.value.tracked.slot(i) {
                m.slabs[i].pre_match(slot, mbuf, pkt);
            }
        }

        // Stream processing: only while the app layer still needs bytes.
        let mut disposition = Disposition::Keep;
        if stream_needed {
            match update.reassembly {
                Reassembled::InOrder => {
                    let tr = m.profile.then(rdtsc);
                    m.stats.reassembly.runs += 1;
                    let payload = payload_range(pkt, mbuf);
                    if !payload.is_empty() {
                        disposition = m.stream_data(entry, dir, mbuf, payload);
                    }
                    // Flush any buffered successors the hole-fill released.
                    while disposition == Disposition::Keep {
                        let flushed = entry.value.flow.reassembler(dir).flush();
                        if flushed.is_empty() {
                            break;
                        }
                        for fmbuf in flushed {
                            if disposition != Disposition::Keep {
                                break;
                            }
                            let Ok(fpkt) = ParsedPacket::parse(fmbuf.data()) else {
                                continue;
                            };
                            let fpayload = payload_range(&fpkt, &fmbuf);
                            if fpayload.is_empty() {
                                continue;
                            }
                            m.stats.reassembly.runs += 1;
                            disposition = m.stream_data(entry, dir, &fmbuf, fpayload);
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

        if disposition == Disposition::RemoveDone {
            // Every subscription is finished with this connection (e.g.
            // TLS handshake delivered): remove mid-stream (§5.2).
            // Counted within conns_discarded (early removal) but
            // attributed separately — this is a win, not a rejection.
            if let Some(removed) = table.remove_handle(handle) {
                // Finished and rejected subscriptions released their
                // state as they fell off; none is left active.
                debug_assert!(removed.value.tracked.held.is_empty());
                release_probe(&removed.value.phase, &mut m.probe_bytes);
                let end = TraceConnEnd::CompletedEarly as u64;
                m.trace_lifecycle(removed.value.trace_id, TraceKind::ConnExpire, end, 0);
            }
            closed.insert(ClosedKey::new(hint.key, hint.ikey), now);
            m.stats.conns_discarded += 1;
            m.stats.conns_completed_early += 1;
        } else if update.terminated {
            if let Some(entry) = table.remove_handle(handle) {
                closed.insert(ClosedKey::new(hint.key, hint.ikey), now);
                m.finalize(entry, FinalizeReason::Terminated);
            }
        }
    }

    /// Advances simulated time: expires idle connections (§5.2),
    /// finalizing each from the table's expiry pass — no entry is moved
    /// to a side buffer first.
    pub fn advance(&mut self, now_ns: u64) {
        let m = &mut self.machine;
        self.table.advance(now_ns, |_key, entry| {
            m.finalize(entry, FinalizeReason::Expired);
        });
        self.closed
            .retain(|_, &mut t| now_ns < t.saturating_add(TIME_WAIT_NS));
    }

    /// Flushes every remaining connection (end of a run): delivers
    /// connection-level data for matched connections.
    pub fn drain(&mut self) {
        let m = &mut self.machine;
        self.table
            .drain_all(|entry| m.finalize(entry, FinalizeReason::Drained));
    }

    /// Rebinds the tracker to a new configuration epoch at a live-swap
    /// safe point, preserving surviving subscriptions' per-connection
    /// state.
    ///
    /// `remap` maps each current subscription index to its index in
    /// `subs` (`None` = removed). For every tracked connection:
    ///
    /// * removed subscriptions are drained — matched ones deliver their
    ///   `on_terminate` data (queued in the output buffer, indexed by
    ///   the **old** subscription index so the caller routes it through
    ///   the old sinks), undecided ones are charged a discard;
    /// * surviving state is re-indexed to the new subscription order
    ///   (slot ids stay valid: a survivor's slab moves with it);
    /// * still-undecided survivors get their packet-filter frontiers
    ///   recomputed under the new trie by replaying a synthetic first
    ///   packet of the connection's five-tuple (survivors the new
    ///   filter cannot match are dropped, ones it decides terminally
    ///   are promoted and delivered);
    /// * connections left with no active subscription are removed and
    ///   counted `conns_swapped` (a distinct outcome in the connection
    ///   identity); the rest keep their phase, with probe/parse demoted
    ///   to plain tracking when nobody needs sessions anymore.
    ///
    /// Returns the removed subscriptions' `(name, tally)` pairs —
    /// including the drains just charged — for the caller to bank.
    pub(crate) fn rebind(
        &mut self,
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        remap: &[Option<usize>],
    ) -> Vec<(String, SubTally)> {
        let (table, closed, m) = (&mut self.table, &mut self.closed, &mut self.machine);
        assert_eq!(remap.len(), m.subs.len(), "remap covers the old table");
        let new_len = subs.len();
        let new_all = SubscriptionSet::first_n(new_len);
        let (specs, session_mask, stream_mask, post_mask) = resolve_subs(&*filter, subs);

        // Survivors carry their tallies to their new index; removed
        // subscriptions keep accumulating on the old vector until it is
        // banked below. `old_of` is `remap` inverted.
        let mut new_tallies = vec![SubTally::default(); new_len];
        let mut old_of: Vec<Option<usize>> = vec![None; new_len];
        for (i, new) in remap.iter().enumerate() {
            if let Some(j) = *new {
                new_tallies[j] = m.sub_tallies[i];
                old_of[j] = Some(i);
            }
        }

        let mut swapped = 0u64;
        {
            let outputs = &mut m.outputs;
            let old_tallies = &mut m.sub_tallies;
            let probe_bytes = &mut m.probe_bytes;
            // Still in the old order during the pass: subscription `j`
            // of the new table finds its state in `slabs[old_of[j]]`.
            let slabs = &mut m.slabs;
            table.retain_mut(
                |entry| {
                    if matches!(entry.value.phase, Phase::Dropped) {
                        // Tombstones keep suppressing trailing packets
                        // and hold no per-subscription state.
                        let conn = &mut entry.value;
                        debug_assert!(conn.tracked.held.is_empty());
                        conn.matched = SubscriptionSet::empty();
                        conn.live = SubscriptionSet::empty();
                        conn.want_parse = SubscriptionSet::empty();
                        return true;
                    }
                    // Removed subscriptions drain: matched ones deliver
                    // their connection-level data (old index — routed
                    // through the old sinks), live ones are discarded.
                    for (i, new) in remap.iter().enumerate() {
                        if new.is_some() {
                            continue;
                        }
                        let slab = &mut *slabs[i];
                        if entry.value.matched.contains(i) {
                            emit(
                                entry,
                                i,
                                slab,
                                outputs,
                                old_tallies,
                                |t, slot, conn, out| {
                                    t.on_terminate(slot, conn, out);
                                },
                            );
                            entry.value.release(i, slab);
                        } else if entry.value.live.contains(i) && entry.value.release(i, slab) {
                            old_tallies[i].discarded += 1;
                        }
                    }
                    let conn = &mut entry.value;
                    // Re-index surviving per-subscription state.
                    let mut new_tracked = TrackedRefs::none();
                    let mut new_matched = SubscriptionSet::empty();
                    let mut new_live = SubscriptionSet::empty();
                    for (j, i) in old_of.iter().enumerate() {
                        let Some(i) = *i else { continue };
                        if conn.matched.contains(i) {
                            new_matched.insert(j);
                        }
                        if conn.live.contains(i) {
                            new_live.insert(j);
                        }
                        if let Some(slot) = conn.tracked.slot(i) {
                            new_tracked.push(j, slot);
                        }
                    }
                    conn.tracked = new_tracked;
                    conn.matched = new_matched;
                    conn.live = new_live;
                    // Still-undecided survivors hold frontiers minted by
                    // the old trie; replay a synthetic first packet of
                    // this five-tuple through the new one to re-derive
                    // them (and the packet-layer verdict). Without a
                    // replay (non-TCP/UDP flow, unparseable frame) the
                    // frontiers cannot be re-derived: conservatively
                    // drop the undecided survivors.
                    if !conn.live.is_empty() {
                        let verdict = synth_first_packet(&entry.tuple)
                            .and_then(|frame| ParsedPacket::parse(&frame).ok())
                            .map(|pkt| filter.packet_filter_set(&pkt));
                        let (vm, vl) = match verdict {
                            Some(verdict) => {
                                conn.frontiers = verdict.frontiers;
                                (verdict.matched & new_all, verdict.live & new_all)
                            }
                            None => (SubscriptionSet::empty(), SubscriptionSet::empty()),
                        };
                        let still_live = conn.live & vl;
                        let promoted = (conn.live - vl) & vm;
                        let dead = conn.live - vl - vm;
                        // Undecided subscriptions are survivors.
                        let old = |j: usize| old_of[j].expect("live subscription survived");
                        for j in dead.iter() {
                            if conn.release(j, &mut *slabs[old(j)]) {
                                new_tallies[j].discarded += 1;
                            }
                        }
                        conn.live = still_live;
                        conn.matched |= promoted;
                        for j in (promoted - session_mask).iter() {
                            let (slab, tallies) = (&mut *slabs[old(j)], &mut new_tallies[..]);
                            emit(entry, j, slab, outputs, tallies, |t, slot, conn, out| {
                                t.on_match(slot, conn, None, None, out);
                            });
                        }
                    }
                    let conn = &mut entry.value;
                    conn.want_parse = conn.live | (conn.matched & session_mask);
                    if conn.want_parse.is_empty()
                        && matches!(conn.phase, Phase::Probing(_) | Phase::Parsing { .. })
                    {
                        // Nobody needs sessions anymore. (A kept probe
                        // state would only hold a superset of parser
                        // candidates — harmless, but pointless work.)
                        release_probe(&conn.phase, probe_bytes);
                        conn.phase = Phase::Tracking;
                    }
                    !conn.active().is_empty()
                },
                |ikey, entry| {
                    // No surviving subscription watches this connection:
                    // a swap-time eviction, attributed `conns_swapped`.
                    debug_assert!(entry.value.tracked.held.is_empty());
                    debug_assert!(!matches!(entry.value.phase, Phase::Probing(_)));
                    swapped += 1;
                    let key = ClosedKey::new(entry.tuple.key(), ikey);
                    closed.insert(key, entry.last_seen_ns);
                },
            );
        }
        m.stats.conns_swapped += swapped;

        let mut banked = Vec::with_capacity(remap.len() - new_len.min(remap.len()));
        for (i, new) in remap.iter().enumerate() {
            if new.is_none() {
                banked.push((m.subs[i].erased.name().to_string(), m.sub_tallies[i]));
            }
        }
        // Survivors' slabs move to their new index; added subscriptions
        // start empty ones; removed ones' (emptied above) are dropped.
        // (No slabs yet: nothing was ever tracked, nothing to move.)
        if !m.slabs.is_empty() {
            let mut old_slabs: Vec<_> = m.slabs.drain(..).map(Some).collect();
            m.slabs = old_of
                .iter()
                .zip(subs)
                .map(|(i, sub)| match i {
                    Some(i) => old_slabs[*i].take().expect("remap is injective"),
                    None => sub.new_slab(),
                })
                .collect();
        }
        m.subs = specs;
        m.all_mask = new_all;
        m.session_mask = session_mask;
        m.stream_mask = stream_mask;
        m.post_mask = post_mask;
        m.filter = filter;
        m.sub_tallies = new_tallies;
        // Memoized probe unions are keyed by want-parse bitmaps of the
        // old subscription order: all stale now. The sets themselves
        // stay: probing connections that survived hold indices into them.
        m.probe_cache.clear();
        banked
    }
}

/// Where `pkt`'s L4 payload sits in its frame.
fn payload_range(pkt: &ParsedPacket, mbuf: &Mbuf) -> Range<usize> {
    pkt.payload_offset..pkt.payload_end.min(mbuf.len())
}

/// Builds a synthetic first packet (SYN / empty datagram) for a tracked
/// five-tuple, used to replay the packet filter when a swap installs a
/// new trie. Only the connection-invariant header fields matter: the
/// packet filter reads addresses, ports, and protocol, never payload or
/// flags-dependent state.
fn synth_first_packet(tuple: &FiveTuple) -> Option<Vec<u8>> {
    match tuple.proto {
        6 => Some(retina_wire::build::build_tcp(
            &retina_wire::build::TcpSpec {
                src: tuple.orig,
                dst: tuple.resp,
                seq: 1,
                ack: 0,
                flags: retina_wire::TcpFlags::SYN,
                window: 65535,
                ttl: 64,
                payload: &[],
            },
        )),
        17 => Some(retina_wire::build::build_udp(
            &retina_wire::build::UdpSpec {
                src: tuple.orig,
                dst: tuple.resp,
                ttl: 64,
                payload: &[],
            },
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::TypedSubscription;
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
    use std::net::SocketAddr;

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
            let verdict = t.machine.filter.packet_filter_set(&pkt);
            if !verdict.is_no_match() {
                let hint = t.hint(&mbuf, &pkt);
                t.process(&mbuf, &pkt, verdict, &hint);
            }
        }
    }

    /// `state_bytes()` the slow way: a walk over every table entry
    /// summing probe-buffer capacities. The running count must equal it
    /// at every point.
    fn state_bytes_walk(t: &ConnTracker<CompiledFilter>) -> usize {
        let per_conn = std::mem::size_of::<ConnEntry<Conn>>() + 64;
        let probing = t.table.iter().filter_map(|e| match &e.value.phase {
            Phase::Probing(ps) => Some(ps.buffered()),
            _ => None,
        });
        t.table.len() * per_conn + probing.sum::<usize>()
    }

    /// Every slab holds exactly the states the table's connections
    /// reference: nothing leaked, nothing dangling. Returns the live
    /// count per subscription.
    fn slab_balance(t: &ConnTracker<CompiledFilter>) -> Vec<usize> {
        assert_eq!(
            t.state_bytes(),
            state_bytes_walk(t),
            "probe-byte count drifted"
        );
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
        assert_eq!(t.machine.sub_tallies[1].delivered, 1);
        assert_eq!(t.machine.sub_tallies[2].delivered, 1);
        assert_eq!(slab_balance(&t), vec![53, 50, 51]);
        assert!(t.machine.sub_tallies[1].discarded >= 2 && t.machine.sub_tallies[2].discarded >= 2);

        // finalize, by termination: the three conversations close.
        netflix.out.clear();
        other.out.clear();
        web.out.clear();
        for conv in [netflix, other, web] {
            feed(&mut t, &conv.close());
        }
        assert_eq!(slab_balance(&t), vec![50, 50, 50]);

        // finalize, by expiry: the SYNs time out; every slab empties.
        t.advance(10_000 * MS);
        assert_eq!(t.connections(), 0);
        assert_eq!(slab_balance(&t), vec![0, 0, 0]);
        assert_eq!(t.machine.sub_tallies[0].delivered, 53);

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
        // them, the removed one's state is released, nothing leaks.
        let new_subs: Subs = vec![
            Arc::clone(&subs[2]),
            Arc::clone(&subs[0]),
            Arc::new(TypedSubscription::<DnsTransactionData>::spec_only("dns")),
        ];
        let new_filter =
            CompiledFilter::build_union(&["http", "tcp", "dns"], &ProtocolRegistry::default())
                .unwrap();
        let banked = t.rebind(Arc::new(new_filter), &new_subs, &[Some(1), None, Some(0)]);
        assert_eq!(banked.len(), 1);
        assert_eq!(banked[0].0, "netflix");
        assert_eq!(
            banked[0].1.discarded,
            3 + 40,
            "rejected three times, undecided on 40 at the swap"
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
        assert_eq!(t.machine.sub_tallies[0].delivered, 3);
        t.drain();
        assert_eq!(slab_balance(&t), vec![0, 0, 0]);
        assert_eq!(t.machine.sub_tallies[1].delivered, 53 + 41);
    }

    /// The running probe-buffer byte count behind the O(1)
    /// `state_bytes()` equals the walk over every entry, through every
    /// way a connection leaves `Phase::Probing`: a winner is selected,
    /// every candidate is eliminated, the prefix overflows, the
    /// connection terminates or expires mid-probe, a rebind demotes it,
    /// the table is drained.
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
        let after_four = check(&t);
        assert!(after_four < parked, "{after_four} vs {parked}");

        // A rebind that drops `http` and keeps `tls`: the four still
        // probing (G can never be TLS, but nobody has told them) stay in
        // the table under the survivor or leave it; either way the count
        // follows.
        let new_subs: Subs = vec![Arc::clone(&subs[0])];
        let new_filter =
            CompiledFilter::build_union(&["tls"], &ProtocolRegistry::default()).unwrap();
        t.rebind(Arc::new(new_filter), &new_subs, &[Some(0), None]);
        check(&t);

        // Expiry (idle past the inactivity timeout) and the final drain
        // release whatever is left.
        t.advance(400_000 * MS);
        check(&t);
        let mut late = Conv::open("10.0.2.1:40100", "93.184.216.34:80", 500_000 * MS);
        late.data(true, &[0x16]);
        feed(&mut t, &late.out);
        assert!(check(&t) > 0);
        t.drain();
        assert_eq!(check(&t), 0);
        assert_eq!(t.connections(), 0);
    }
}
