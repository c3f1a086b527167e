//! The Figure-4 machine: phases, probing, and [`step`], the one pure
//! function every transition goes through. `Machine::apply` executes it,
//! and `Machine::exit` is the one way out of the table: the only writers
//! of a phase. Figure 4 draws one subscription's machine; this is their
//! composition (the tests check it against a per-subscription model).
//!
//! A phase owns nothing it would allocate per connection: probing state
//! is sixteen bytes in the phase ([`Probe`]), a record that straddles
//! segments is buffered in a slot of the core's [`Prefixes`], a parser
//! comes from its protocol's [`ParserPool`], and the phase writer hands
//! slot and parser back.

use std::panic::{catch_unwind, AssertUnwindSafe};

use retina_conntrack::{ConnEntry, Dir};
use retina_filter::{ConnVerdict, FilterFns, Frontiers, SubscriptionSet};
use retina_nic::Mbuf;
use retina_protocols::{
    ConnParser, Direction, ParseResult, ParserRegistry, ProbeResult, Session, SessionState,
};
use retina_support::slab::Slab;
use retina_telemetry::{trace::TraceConnEnd, TraceKind};

use super::{first_verdict, Conn, Machine};
use crate::pipeline::BURST_MAX;
use crate::subscription::MatchedSession;
use crate::util::rdtsc;

/// Cap on bytes buffered per direction while probing for the protocol,
/// and on what a pooled parser keeps between connections.
pub(super) const PROBE_BUFFER_CAP: usize = 8 * 1024;

/// Most probe candidates one connection can hold: its alive mask is one
/// word. (The built-in registry has five protocols.)
const MAX_CANDIDATES: usize = u64::BITS as usize;

/// One probe-candidate set, shared by every connection that probes for
/// the same protocols: [`ConnParser::probe`] takes `&self` and reads no
/// per-connection state, so one never-fed prototype per protocol serves
/// them all, and a connection instantiates only the parser that wins.
pub(super) struct ProbeSet {
    /// The protocol names probed for, in candidate order (at most
    /// [`MAX_CANDIDATES`]).
    protos: Vec<String>,
    /// `protos[i]`'s prototype and the index of its protocol's
    /// [`ParserPool`]; `None` for a name the registry does not know
    /// (never a candidate).
    prototypes: Vec<Option<(Box<dyn ConnParser>, u32)>>,
    /// The alive mask a connection starts probing with: one bit per
    /// prototype.
    all_alive: u64,
}

impl ProbeSet {
    /// The set for `protos`, each known protocol's pool found in `pools`
    /// or added to it.
    fn new(protos: Vec<String>, registry: &ParserRegistry, pools: &mut Vec<ParserPool>) -> Self {
        let mut pool_of = |proto: &String, prototype: &dyn ConnParser| {
            let known = pools.iter().position(|p| p.proto == *proto);
            let i = known.unwrap_or_else(|| {
                pools.push(ParserPool {
                    proto: proto.clone(),
                    service: prototype.name(),
                    idle: Vec::new(),
                });
                pools.len() - 1
            });
            u32::try_from(i).expect("one pool per registered protocol")
        };
        let prototypes: Vec<_> = protos
            .iter()
            .map(|p| {
                let prototype = registry.instantiate(p)?;
                let pool = pool_of(p, &*prototype);
                Some((prototype, pool))
            })
            .collect();
        let known = prototypes.iter().enumerate();
        let all_alive = known.fold(0, |m, (i, p)| m | (u64::from(p.is_some()) << i));
        ProbeSet {
            protos,
            prototypes,
            all_alive,
        }
    }

    /// Evaluates the candidates still `alive`, in set order, against both
    /// directions' prefixes (see [`prefixes`]): the first candidate
    /// certain of the stream, if any, and the alive mask less the
    /// candidates every nonempty prefix ruled out. A panic while probing
    /// eliminates the candidate (recoverable, counted in `panics`), never
    /// the worker.
    fn probe(
        &self,
        alive: u64,
        prefixes: [(&[u8], Direction); 2],
        panics: &mut u64,
    ) -> (Option<usize>, u64) {
        let (mut candidates, mut alive) = (alive, alive);
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let (parser, _) = self.prototypes[i]
                .as_ref()
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

/// A probing connection's state: which candidates of its [`ProbeSet`]
/// are still in the running, plus — only once a direction's first
/// segment left every candidate unsure — its slot in the core's
/// [`Prefixes`]. Sixteen bytes, held in the phase itself: nothing is
/// allocated for a connection that probes.
#[derive(Debug, Clone, Copy)]
pub(super) struct Probe {
    /// Index of the candidate set in the tracker's `probe_sets`.
    set: u32,
    /// The connection's slot in [`Prefixes`], or [`NO_PREFIX`].
    pub(super) prefix: u32,
    /// Bit `i` set: candidate `i` of the set has not been eliminated.
    alive: u64,
}

/// [`Probe::prefix`] of a connection that has buffered nothing.
pub(super) const NO_PREFIX: u32 = u32::MAX;

/// Both directions' prefix buffers, client's first.
type PrefixPair = [Vec<u8>; 2];

// Vacancy costs no byte: the slab entry's tag lives in a niche of the
// buffers.
const _: () = assert!(Slab::<PrefixPair>::ENTRY_BYTES == std::mem::size_of::<Option<PrefixPair>>());

/// The stream prefixes of probing connections whose first segment left
/// every candidate unsure, by slot: a [`Slab`], like the tracked states.
/// A slot is reused; the bytes it buffered are freed with it — records
/// that straddle segments are rare, and what a pool of them kept would
/// stay pinned.
pub(super) type Prefixes = Slab<PrefixPair>;

/// What a probe's prefix slot is while the probe holds it.
const LIVE_PREFIX: &str = "a probe's prefix slot is live";

/// The index of direction `d`'s buffer in a [`PrefixPair`].
fn side(d: Direction) -> usize {
    match d {
        Direction::ToServer => 0,
        Direction::ToClient => 1,
    }
}

/// Both directions' stream prefixes, client's first: what `buffered`
/// holds, except that `in_place` — a segment of a direction that has
/// buffered nothing — is that direction's prefix where it lies in its
/// frame.
fn prefixes<'a>(
    buffered: Option<&'a PrefixPair>,
    in_place: Option<(Direction, &'a [u8])>,
) -> [(&'a [u8], Direction); 2] {
    let prefix = |d| match (in_place, buffered) {
        (Some((at, segment)), _) if at == d => (segment, d),
        (_, Some(bufs)) => (bufs[side(d)].as_slice(), d),
        _ => (&[][..], d),
    };
    [prefix(Direction::ToServer), prefix(Direction::ToClient)]
}

/// Appends `data` to a prefix buffer — the one copy on the probe path,
/// made only for a record that straddles segments — and returns how many
/// heap bytes the buffer grew by.
fn spill(buf: &mut Vec<u8>, data: &[u8]) -> usize {
    let held = buf.capacity();
    buf.extend_from_slice(data);
    buf.capacity() - held
}

/// Parsers of one protocol between connections: reset, each with the
/// bytes it keeps, waiting for the next connection identified as the
/// protocol.
pub(super) struct ParserPool {
    /// The protocol's registry name.
    proto: String,
    /// What its parsers call themselves: the service a connection is
    /// identified as.
    service: &'static str,
    pub(super) idle: Vec<(Box<dyn ConnParser>, usize)>,
}

/// Connection processing phase (Figure 4 states), shared by all
/// subscriptions on the connection: the probe/parse machinery runs once
/// per connection no matter how many subscriptions consume it.
pub(super) enum Phase {
    /// Probing the stream prefix for the application-layer protocol.
    Probing(Probe),
    /// Parsing the identified protocol with a parser drawn from
    /// `pool`, which it goes back to when the connection stops parsing.
    Parsing {
        parser: Box<dyn ConnParser>,
        pool: u32,
    },
    /// Tracking without app-layer processing (counters + delivery hooks).
    Tracking,
    /// Every subscription fell off: retained as a tombstone so subsequent
    /// packets do no work; removed by timeout.
    Dropped,
}

/// Which Figure-4 state a [`Phase`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    Probing,
    Parsing,
    Tracking,
    Dropped,
}

/// What a transition into Probing or Parsing starts the phase with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Seed {
    /// Probing against this candidate set.
    Probe(u32),
    /// A parser from this protocol's pool.
    Parse(u32),
}

impl Phase {
    #[inline]
    pub(super) fn kind(&self) -> Kind {
        match self {
            Phase::Probing(_) => Kind::Probing,
            Phase::Parsing { .. } => Kind::Parsing,
            Phase::Tracking => Kind::Tracking,
            Phase::Dropped => Kind::Dropped,
        }
    }
}

/// A connection's subscription sets: what [`step`] moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Subs {
    /// Filter fully matched: data being delivered.
    pub(super) matched: SubscriptionSet,
    /// Filter still undecided.
    pub(super) live: SubscriptionSet,
    /// Still needing probe/parse progress: the undecided, plus matched
    /// session-level ones while their protocol produces sessions.
    pub(super) want_parse: SubscriptionSet,
}

impl Subs {
    #[inline]
    pub(super) fn active(&self) -> SubscriptionSet {
        self.matched | self.live
    }
}

/// What the machine reads of the subscription table, a bit per index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Masks {
    /// Every index (verdicts wider than the table are cut to it).
    pub(super) all: SubscriptionSet,
    /// Packet-level: served by the packet filter's bypass once decided.
    pub(super) packet: SubscriptionSet,
    /// Session-level: consume every session the protocol produces.
    pub(super) session: SubscriptionSet,
    /// Want the in-order stream.
    pub(super) stream: SubscriptionSet,
    /// Want every packet after the match.
    pub(super) post: SubscriptionSet,
}

/// What happened to a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Event {
    /// First packet; `probeable`: a protocol can be probed for `want_parse`.
    Opened { probeable: bool },
    /// Probing identified the protocol: the connection filter's verdict.
    ServiceIdentified(ConnVerdict),
    /// Probe overflow, every candidate eliminated, or a parse error.
    ConnLayerFailed,
    /// One parsed session, and the undecided its session filter passed.
    Session { hits: SubscriptionSet },
    /// A nonempty batch of sessions ended. `done`: the protocol produces
    /// no more for the matched; `reject`: the undecided fail.
    SessionBatch { done: bool, reject: bool },
    /// The connection leaves the table.
    Ended,
    /// A swap keeping `kept`; the new packet filter's `verdict` on them.
    Rebound {
        kept: SubscriptionSet,
        verdict: ConnVerdict,
    },
}

/// What a transition asks of the tracker, in `Machine::apply`'s order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Actions {
    /// Start probing for the protocol.
    pub(super) probe: bool,
    /// Feed the identified protocol's parser the probed prefixes.
    pub(super) parse: bool,
    /// Run the parser's partial sessions through the session filter.
    pub(super) session_filter: bool,
    /// Rejected: state released, a discard charged.
    pub(super) drop_sub: SubscriptionSet,
    /// Removed by a swap while matched: `on_terminate`, state released.
    pub(super) terminate: SubscriptionSet,
    /// `on_match`: the already-matched first, then the newly matched.
    pub(super) emit: SubscriptionSet,
    /// Fully served: state released, nothing charged.
    pub(super) finish: SubscriptionSet,
    /// The last subscription was rejected: a tombstone, for this cause.
    pub(super) tombstone: Option<DiscardCause>,
    /// The connection leaves the table.
    pub(super) release: bool,
}

/// A discarded connection's one cause: `conns_discarded` is their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum DiscardCause {
    ConnFilter,
    SessionFilter,
    CompletedEarly,
}

/// [`step`]'s result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Transition {
    pub(super) next: Kind,
    pub(super) subs: Subs,
    /// Whether any subscription was fully served and retired early, by
    /// this transition or before it.
    pub(super) done_any: bool,
    pub(super) actions: Actions,
}

impl Transition {
    /// `subs` are rejected: they leave every set.
    #[inline]
    fn reject(&mut self, subs: SubscriptionSet) {
        self.subs.matched -= subs;
        self.subs.live -= subs;
        self.subs.want_parse -= subs;
        self.actions.drop_sub |= subs;
    }

    /// `subs` are fully served and retire.
    #[inline]
    fn finish(&mut self, subs: SubscriptionSet) {
        self.subs.matched -= subs;
        self.subs.want_parse -= subs;
        self.done_any |= !subs.is_empty();
        self.actions.finish |= subs;
    }

    /// Every undecided subscription falls off; parsing stops.
    #[inline]
    fn fail(mut self) -> Self {
        self.reject(self.subs.live);
        self.subs.want_parse = SubscriptionSet::empty();
        self.settle(DiscardCause::ConnFilter)
    }

    /// Figure 4's DEL: with someone active the connection stays (tracking
    /// once nobody wants sessions), else leaves if someone was served, else
    /// is a tombstone charged to `cause`.
    #[inline]
    fn settle(mut self, cause: DiscardCause) -> Self {
        if !self.subs.active().is_empty() {
            if self.subs.want_parse.is_empty() && self.next != Kind::Dropped {
                self.next = Kind::Tracking;
            }
        } else if self.done_any {
            self.actions.release = true;
        } else {
            self.actions.tombstone = Some(cause);
            self.next = Kind::Dropped;
        }
        self
    }
}

/// Where `event` takes a connection in `kind` with sets `s`, `done_any`
/// if someone was served on it already.
#[inline(always)]
pub(super) fn step(kind: Kind, event: Event, s: Subs, done_any: bool, m: &Masks) -> Transition {
    let mut t = Transition {
        next: kind,
        subs: s,
        done_any,
        actions: Actions::default(),
    };
    match event {
        Event::Opened { probeable } => {
            // Decided at the packet layer: delivered once the entry
            // exists; session-level ones wait for sessions.
            t.actions.emit = s.matched - m.session;
            t.next = Kind::Tracking;
            if s.want_parse.is_empty() {
                t.settle(DiscardCause::ConnFilter)
            } else if probeable {
                t.next = Kind::Probing;
                t.actions.probe = true;
                t
            } else {
                t.fail() // no parser can ever resolve the undecided
            }
        }
        Event::ServiceIdentified(v) => {
            let (matched, live) = (v.matched & s.live, v.live & (s.live - v.matched));
            t.reject(s.live - matched - live);
            t.subs.live = live;
            t.subs.matched |= matched;
            // Non-session matches are fully decided: delivered, and
            // parsing stops on their behalf.
            t.actions.emit = matched - m.session;
            t.subs.want_parse -= t.actions.emit;
            t.next = Kind::Tracking;
            if t.subs.want_parse.is_empty() {
                return t.settle(DiscardCause::ConnFilter);
            }
            t.next = Kind::Parsing;
            t.actions.parse = true;
            t
        }
        Event::ConnLayerFailed => t.fail(),
        Event::Session { hits } => {
            // Matched session-level subscriptions get every session; the
            // undecided it passed get their first full match.
            let hits = hits & s.live;
            t.actions.emit = (s.matched & m.session) | hits;
            t.subs.live -= hits;
            t.subs.matched |= hits;
            t
        }
        Event::SessionBatch { done, reject } => {
            if done {
                // The matched stop parsing; session-level ones with
                // nothing further to deliver are fully served.
                let stop = s.matched & s.want_parse;
                t.subs.want_parse -= stop;
                t.finish(stop & ((m.session - m.post) - m.stream));
            }
            if reject {
                t.reject(t.subs.live);
            }
            t.settle(DiscardCause::SessionFilter)
        }
        Event::Ended => {
            t.actions.session_filter = kind == Kind::Parsing && !s.active().is_empty();
            t.actions.release = true;
            t
        }
        // Tombstones hold no subscription in either table.
        Event::Rebound { .. } if kind == Kind::Dropped => {
            t.subs = Subs::default();
            t
        }
        Event::Rebound { kept, verdict: v } => {
            // Removed subscriptions drain: the matched deliver their
            // end-of-connection data, the undecided are discarded.
            let removed = s.active() - kept;
            t.actions.terminate = s.matched & removed;
            t.subs.matched -= removed;
            t.reject(s.live & removed);
            // Undecided survivors stay undecided, are decided at the
            // packet layer ("promoted"), or die.
            let undecided = t.subs.live;
            let promoted = (undecided - v.live) & v.matched;
            t.reject(undecided - v.live - v.matched);
            t.subs.live = undecided & v.live;
            t.subs.matched |= promoted;
            t.actions.emit = promoted - m.session;
            // A packet-level one is the packet filter's bypass's now.
            t.finish(t.actions.emit & m.packet);
            t.subs.want_parse = t.subs.live | (t.subs.matched & m.session);
            if t.subs.active().is_empty() {
                t.actions.release = true;
            } else if t.subs.want_parse.is_empty() && kind != Kind::Tracking {
                t.next = Kind::Tracking;
            }
            t
        }
    }
}

impl<F: FilterFns> Machine<F> {
    /// Swaps in `next`, handing back what the phase left drew: its prefix
    /// slot (the buffered bytes leave the running count here) or its
    /// parser, reset, to the pool.
    fn set_phase(&mut self, conn: &mut Conn, next: Phase) {
        match std::mem::replace(&mut conn.phase, next) {
            Phase::Probing(probe) if probe.prefix != NO_PREFIX => {
                let bufs = self.prefixes.remove(probe.prefix).expect(LIVE_PREFIX);
                self.probe_bytes -= bufs.iter().map(Vec::capacity).sum::<usize>();
            }
            Phase::Parsing { parser, pool } => self.pool_parser(parser, pool),
            Phase::Probing(_) | Phase::Tracking | Phase::Dropped => {}
        }
    }

    /// A parser of pool `pool`'s protocol: an idle one if there is one,
    /// else a new one.
    fn draw_parser(&mut self, pool: u32) -> Box<dyn ConnParser> {
        let pool = &mut self.parsers[pool as usize];
        if let Some((parser, kept)) = pool.idle.pop() {
            self.probe_bytes -= kept;
            return parser;
        }
        self.registry
            .instantiate(&pool.proto)
            .expect("a pool's protocol is registered")
    }

    /// Returns `parser` to pool `pool`, reset, unless the pool already
    /// holds [`BURST_MAX`] idle parsers — enough for every connection a
    /// burst can identify; a mass expiry's worth would sit pinned — or
    /// the parser keeps more than [`PROBE_BUFFER_CAP`], or panics
    /// resetting (counted as a parser panic): then it is dropped.
    fn pool_parser(&mut self, mut parser: Box<dyn ConnParser>, pool: u32) {
        let idle = &self.parsers[pool as usize].idle;
        if idle.len() >= BURST_MAX {
            return;
        }
        let kept = catch_unwind(AssertUnwindSafe(|| parser.reset())).unwrap_or_else(|_| {
            self.stats.parser_panics += 1;
            usize::MAX
        });
        if kept <= PROBE_BUFFER_CAP {
            self.probe_bytes += kept;
            self.parsers[pool as usize].idle.push((parser, kept));
        }
    }

    /// Runs `event` through [`step`] on `entry` and carries it out: the
    /// [`Actions`] in order (`on_match` told `service` and lent `session`,
    /// which the last subscription emitted to may take), the
    /// sets, the phase (`seed`: what the Probing or Parsing phase entered
    /// starts with), unless the connection leaves the table
    /// (`Actions::release`: the exit moves it). Returns the actions.
    /// Inlined into every caller: the event is constant there, and a
    /// connection's birth then costs no more than the emission it always
    /// did.
    #[inline(always)]
    pub(super) fn apply(
        &mut self,
        entry: &mut ConnEntry<Conn>,
        event: Event,
        service: Option<&'static str>,
        session: &mut Option<Session>,
        seed: Option<Seed>,
    ) -> Actions {
        let conn = &entry.value;
        let (kind, before, done_any) = (conn.phase.kind(), conn.subs, conn.done_any);
        let t = step(kind, event, before, done_any, &self.masks);
        #[cfg(test)]
        tests::audit(kind, event, before, done_any, &self.masks, &t);
        let a = t.actions;
        for i in a.drop_sub.iter() {
            if self.release(&mut entry.value, i) {
                self.tallies[self.subs[i].row].discarded += 1;
            }
        }
        for i in a.terminate.iter() {
            self.terminate(entry, i);
        }
        let newly = a.emit - before.matched;
        let mut emits = (a.emit & before.matched)
            .iter()
            .chain(newly.iter())
            .peekable();
        while let Some(i) = emits.next() {
            let session = MatchedSession::of(session, emits.peek().is_none());
            self.emit(entry, i, |slab, slot, conn, out| {
                slab.on_match(slot, conn, service, session, out);
            });
        }
        let conn = &mut entry.value;
        for i in a.finish.iter() {
            self.release(conn, i);
        }
        (conn.subs, conn.done_any) = (t.subs, t.done_any);
        if let Some(cause) = a.tombstone {
            self.count_discard(cause);
        }
        if a.release || t.next == kind {
            return a;
        }
        let next = match (t.next, seed) {
            (Kind::Tracking, _) => Phase::Tracking,
            (Kind::Dropped, _) => Phase::Dropped,
            (Kind::Probing, Some(Seed::Probe(set))) => Phase::Probing(Probe {
                set,
                prefix: NO_PREFIX,
                alive: self.probe_sets[set as usize].all_alive,
            }),
            (Kind::Parsing, Some(Seed::Parse(pool))) => Phase::Parsing {
                parser: self.draw_parser(pool),
                pool,
            },
            _ => unreachable!("the caller seeds the phase entered"),
        };
        self.set_phase(conn, next);
        a
    }

    /// `apply` for an unseeded, sessionless event: whether it leaves.
    pub(super) fn leaves(&mut self, entry: &mut ConnEntry<Conn>, event: Event) -> bool {
        self.apply(entry, event, None, &mut None, None).release
    }

    /// The one way out of the table, for all five reasons: partial
    /// sessions (e.g. an unanswered DNS query) through the session filter,
    /// `on_terminate` for the matched, every slot back, the outcome
    /// counted (a tombstone was, at discard) and traced.
    pub(super) fn exit(&mut self, entry: &mut ConnEntry<Conn>, end: TraceConnEnd) {
        let kind = entry.value.phase.kind();
        let conn = &entry.value;
        let t = step(kind, Event::Ended, conn.subs, conn.done_any, &self.masks);
        let phase = &mut entry.value.phase;
        if let (true, Phase::Parsing { parser, pool }) = (t.actions.session_filter, phase) {
            let service = self.parsers[*pool as usize].service;
            let mut sessions = std::mem::take(&mut self.sessions);
            parser.drain_sessions(&mut sessions);
            self.deliver_sessions(entry, service, &mut sessions);
            self.sessions = sessions;
        }
        for i in entry.value.subs.matched.iter() {
            self.terminate(entry, i);
        }
        let conn = &mut entry.value;
        for i in conn.tracked.held.iter() {
            self.release(conn, i);
        }
        self.flows.release(&mut conn.flow);
        self.set_phase(conn, Phase::Dropped);
        let s = &mut self.stats;
        match end {
            _ if kind == Kind::Dropped => {}
            TraceConnEnd::Terminated => s.conns_terminated += 1,
            TraceConnEnd::Expired => s.conns_expired += 1,
            TraceConnEnd::Drained => s.conns_drained += 1,
            TraceConnEnd::Swapped => s.conns_swapped += 1,
            TraceConnEnd::CompletedEarly => self.count_discard(DiscardCause::CompletedEarly),
        }
        self.trace_lifecycle(conn.trace_id, TraceKind::ConnExpire, end as u64, 0);
    }

    /// The one place `conns_discarded` moves.
    fn count_discard(&mut self, cause: DiscardCause) {
        let s = &mut self.stats;
        s.conns_discarded += 1;
        *match cause {
            DiscardCause::ConnFilter => &mut s.discard_conn_filter,
            DiscardCause::SessionFilter => &mut s.discard_session_filter,
            DiscardCause::CompletedEarly => &mut s.conns_completed_early,
        } += 1;
    }

    /// The probing phase's seed for a connection whose `want`
    /// subscriptions need its protocol: the candidate set of their
    /// conn-layer filter protocols and their types' parsers, in
    /// subscription order (`None`: no protocol). Memoized per bitmap;
    /// equal lists share a set.
    pub(super) fn probing(&mut self, want: SubscriptionSet) -> Option<Seed> {
        if want.is_empty() {
            return None;
        }
        let (subs, sets, registry) = (&self.subs, &mut self.probe_sets, &self.registry);
        let pools = &mut self.parsers;
        let set = *self.probe_cache.entry(want.bits()).or_insert_with(|| {
            let mut protos: Vec<String> = Vec::new();
            for i in want.iter() {
                for p in &subs[i].probe_protos {
                    if !protos.contains(p) && protos.len() < MAX_CANDIDATES {
                        protos.push(p.clone());
                    }
                }
            }
            (!protos.is_empty()).then(|| {
                let known = sets.iter().position(|s| s.protos == protos);
                known.unwrap_or_else(|| {
                    sets.push(ProbeSet::new(protos, registry, pools));
                    sets.len() - 1
                }) as u32
            })
        });
        set.map(Seed::Probe)
    }

    /// Feeds the next in-order segment, the payload `mbuf` was stamped
    /// with, to every engaged stream subscription's hook — undecided ones
    /// decide what to hold — and through probe/parse. Returns whether the
    /// connection leaves the table.
    pub(super) fn stream_data(
        &mut self,
        entry: &mut ConnEntry<Conn>,
        dir: Dir,
        mbuf: &Mbuf,
    ) -> bool {
        let payload = mbuf.payload();
        let conn = &mut entry.value;
        for i in (conn.subs.active() & self.masks.stream).iter() {
            if let Some(slot) = conn.tracked.slot(i) {
                self.slabs[i].on_stream(slot, dir, mbuf, payload.clone());
            }
        }
        // Shed tier 1: the stream hooks above still run (packet
        // delivery work), but probe/parse make no progress.
        if self.shed_parsing && matches!(conn.phase, Phase::Probing(_) | Phase::Parsing { .. }) {
            return false;
        }
        let data = &mbuf.data()[payload];
        let pdir = match dir {
            Dir::OrigToResp => Direction::ToServer,
            Dir::RespToOrig => Direction::ToClient,
        };
        let probe = match &mut conn.phase {
            Phase::Probing(probe) => probe,
            Phase::Parsing { .. } => return self.parse_data(entry, data, pdir),
            Phase::Tracking | Phase::Dropped => return false,
        };
        let mut buffered = (probe.prefix != NO_PREFIX).then(|| &mut self.prefixes[probe.prefix]);
        let held = buffered.as_ref().map_or(0, |bufs| bufs[side(pdir)].len());
        if held + data.len() > PROBE_BUFFER_CAP {
            return self.leaves(entry, Event::ConnLayerFailed);
        }
        // A direction that has buffered nothing is probed in place, on
        // the frame; one that has is probed on its buffer, this segment
        // appended.
        let in_place = (held == 0).then_some((pdir, data));
        if let (None, Some(bufs)) = (in_place, buffered.as_mut()) {
            self.probe_bytes += spill(&mut bufs[side(pdir)], data);
        }
        let set = &self.probe_sets[probe.set as usize];
        let both = prefixes(buffered.as_deref(), in_place);
        let (selected, alive) = set.probe(probe.alive, both, &mut self.stats.parser_panics);
        let Some(i) = selected else {
            // Drop eliminated candidates; fail when none remain.
            probe.alive = alive;
            if alive == 0 {
                return self.leaves(entry, Event::ConnLayerFailed);
            }
            // Every candidate left is unsure of a record that ends in a
            // later segment: only now is it copied, into a prefix slot
            // the connection takes the first time.
            if in_place.is_some() {
                if probe.prefix == NO_PREFIX {
                    probe.prefix = self.prefixes.insert(PrefixPair::default());
                }
                let bufs = &mut self.prefixes[probe.prefix];
                self.probe_bytes += spill(&mut bufs[side(pdir)], data);
            }
            return false;
        };
        // Only the winner is ever instantiated — or drawn from its pool,
        // if the parse starts.
        let (_, pool) = set.prototypes[i]
            .as_ref()
            .expect("the winner has a prototype");
        let (pool, service) = (*pool, self.parsers[*pool as usize].service);
        // What was buffered, taken out of the connection's prefix slot,
        // which goes now, whatever the transition.
        let slot = std::mem::replace(&mut probe.prefix, NO_PREFIX);
        let taken = (slot != NO_PREFIX).then(|| self.prefixes.remove(slot).expect(LIVE_PREFIX));
        // Connection filter (Figure 4's first pseudostate) over the
        // still-live subscriptions, resuming at the first packet's
        // frontiers.
        let frontiers = first_verdict(&*self.filter, entry).frontiers;
        let conn = &entry.value;
        let v = self
            .filter
            .conn_filter_set(Some(service), &frontiers, conn.subs.live);
        self.trace(
            conn,
            TraceKind::ConnVerdict,
            v.matched.bits(),
            v.live.bits(),
        );
        let seed = Some(Seed::Parse(pool));
        let event = Event::ServiceIdentified(v);
        let a = self.apply(entry, event, Some(service), &mut None, seed);
        // Feed the parser both prefixes, client's first: what was
        // buffered, and this segment where it lies.
        let both = prefixes(taken.as_ref(), in_place);
        let leaves = a.release
            || a.parse
                && (both.into_iter())
                    .any(|(prefix, d)| !prefix.is_empty() && self.parse_data(entry, prefix, d));
        if let Some(bufs) = taken {
            self.probe_bytes -= bufs.iter().map(Vec::capacity).sum::<usize>();
        }
        leaves
    }

    /// Hands `data` to the parser, if parsing, and the sessions it
    /// completes — in the core's buffer — to the session filter. Returns
    /// whether the connection leaves the table.
    fn parse_data(&mut self, entry: &mut ConnEntry<Conn>, data: &[u8], pdir: Direction) -> bool {
        let Phase::Parsing { parser, pool } = &mut entry.value.phase else {
            return false;
        };
        let service = self.parsers[*pool as usize].service;
        let tp = self.profile.then(rdtsc);
        self.stats.app_parsing.runs += 1;
        let mut sessions = std::mem::take(&mut self.sessions);
        // A panicking parser must not take the worker core (and its RX
        // queue) down with it: the panic is a parse error, as for
        // malformed input.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parser.parse(data, pdir, &mut sessions)
        }))
        .unwrap_or_else(|_| {
            self.stats.parser_panics += 1;
            ParseResult::Error
        });
        if let Some(t) = tp {
            self.stats
                .app_parsing
                .record_cycles(rdtsc().wrapping_sub(t));
        }
        let event = match result {
            // A failing call's sessions are dropped with the parse: a parser
            // that completed one in the call returns `Done`, and fails next.
            ParseResult::Error => Some(Event::ConnLayerFailed),
            _ if sessions.is_empty() => None,
            ParseResult::Continue | ParseResult::Done => {
                let done = parser.session_match_state() == SessionState::Remove;
                let reject = parser.session_nomatch_state() == SessionState::Remove;
                self.deliver_sessions(entry, service, &mut sessions);
                Some(Event::SessionBatch { done, reject })
            }
        };
        sessions.clear();
        self.sessions = sessions;
        event.is_some_and(|event| self.leaves(entry, event))
    }

    /// The session filter (Figure 4's second pseudostate) and delivery for
    /// each of `sessions`, just parsed or drained at the connection's end:
    /// each leaves the buffer into its match, where the last subscriber
    /// served may take it, and one nobody takes is handed back to its
    /// parser ([`ConnParser::recycle`]). The filter resumes at the first
    /// packet's frontiers, rebuilt once for the batch; with no
    /// subscription left undecided none of them is read, and none is
    /// rebuilt.
    fn deliver_sessions(
        &mut self,
        entry: &mut ConnEntry<Conn>,
        service: &'static str,
        sessions: &mut Vec<Session>,
    ) {
        let frontiers = if sessions.is_empty() || entry.value.subs.live.is_empty() {
            Frontiers::default()
        } else {
            first_verdict(&*self.filter, entry).frontiers
        };
        for session in sessions.drain(..) {
            let conn = &entry.value;
            let ts = self.profile.then(rdtsc);
            self.stats.session_filter.runs += 1;
            let live = conn.subs.live;
            let hits = self.filter.session_filter_set(&session, &frontiers, live);
            if let Some(t) = ts {
                self.stats
                    .session_filter
                    .record_cycles(rdtsc().wrapping_sub(t));
            }
            self.trace(conn, TraceKind::SessionVerdict, hits.bits(), live.bits());
            let event = Event::Session { hits };
            let mut session = Some(session);
            self.apply(entry, event, Some(service), &mut session, None);
            // A session no subscriber took goes back to the parser that
            // built it — a session event leaves the phase as it is — for
            // its next sessions to write into. Its buffers are counted in
            // `probe_bytes` when the parser is reset into its pool.
            if let (Some(session), Phase::Parsing { parser, .. }) =
                (session, &mut entry.value.phase)
            {
                let recycled = catch_unwind(AssertUnwindSafe(|| parser.recycle(session)));
                self.stats.parser_panics += u64::from(recycled.is_err());
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    //! [`step`] against a reference model written from the paper's
    //! Figure 4, which draws the machine of **one** subscription: the
    //! model runs that machine once per subscription and composes the
    //! connection's phase from the results. The merged machine must equal
    //! the composition — the invariant `end_to_end.rs` checks at delivery
    //! level, here checked per transition.

    use super::*;
    use std::cell::Cell;

    /// One subscription's Figure-4 state (and a verdict's, for it).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum St {
        Gone,
        Live,
        Matched,
    }

    /// What one subscription's machine did to it.
    #[derive(Debug, Clone, Copy, Default)]
    struct Did {
        emit: bool,
        kill: bool,
        finish: bool,
        terminate: bool,
    }

    fn st(matched: SubscriptionSet, live: SubscriptionSet, i: usize) -> St {
        if matched.contains(i) {
            St::Matched
        } else if live.contains(i) {
            St::Live
        } else {
            St::Gone
        }
    }

    /// Figure 4 for subscription `i` alone: its next state, whether it
    /// still wants parsing, and what was done to it. The only
    /// connection-wide facts it reads are the ones Figure 4 is drawn
    /// around: whether anyone wants the protocol parsed (the probe runs
    /// for all), and whether the connection is a tombstone.
    fn fig4(kind: Kind, event: Event, s: &Subs, m: &Masks, i: usize) -> (St, bool, Did) {
        let (mut now, mut want) = (st(s.matched, s.live, i), s.want_parse.contains(i));
        let mut did = Did::default();
        let session = m.session.contains(i);
        let mut die = |now: &mut St, want: &mut bool| {
            *now = St::Gone;
            *want = false;
            did.kill = true;
        };
        match event {
            Event::Opened { probeable } => {
                did.emit = now == St::Matched && !session;
                // No parser can resolve the undecided: they die at birth.
                if !s.want_parse.is_empty() && !probeable {
                    if now == St::Live {
                        die(&mut now, &mut want);
                    }
                    want = false;
                }
            }
            Event::ServiceIdentified(v) if now == St::Live => match st(v.matched, v.live, i) {
                St::Gone => die(&mut now, &mut want),
                St::Live => {}
                St::Matched => {
                    now = St::Matched;
                    // Decided for good unless it wants sessions.
                    if !session {
                        did.emit = true;
                        want = false;
                    }
                }
            },
            Event::ConnLayerFailed => {
                if now == St::Live {
                    die(&mut now, &mut want);
                }
                want = false;
            }
            Event::Session { hits } => {
                if now == St::Matched && session {
                    did.emit = true;
                } else if now == St::Live && hits.contains(i) {
                    now = St::Matched;
                    did.emit = true;
                }
            }
            Event::SessionBatch { done, reject } => {
                if done && now == St::Matched && want {
                    want = false;
                    let more = m.post.contains(i) || m.stream.contains(i);
                    if session && !more {
                        now = St::Gone;
                        did.finish = true;
                    }
                }
                if reject && now == St::Live {
                    die(&mut now, &mut want);
                }
            }
            Event::Rebound { .. } if kind == Kind::Dropped => (now, want) = (St::Gone, false),
            Event::Rebound { kept, verdict } => {
                if !kept.contains(i) {
                    match now {
                        St::Matched => did.terminate = true,
                        St::Live => did.kill = true,
                        St::Gone => {}
                    }
                    now = St::Gone;
                } else if now == St::Live {
                    match st(verdict.matched, verdict.live, i) {
                        St::Gone => die(&mut now, &mut want),
                        St::Live => {}
                        St::Matched if !session && m.packet.contains(i) => {
                            // Promoted, and the packet filter serves it.
                            did.emit = true;
                            did.finish = true;
                            now = St::Gone;
                        }
                        St::Matched => {
                            did.emit = !session;
                            now = St::Matched;
                        }
                    }
                }
                want = now == St::Live || (now == St::Matched && session);
            }
            Event::ServiceIdentified(_) | Event::Ended => {}
        }
        (now, want, did)
    }

    /// The machine of a connection carrying subscriptions `0..n`: `fig4`
    /// for each, and the connection's phase composed from theirs — probe
    /// or parse while anyone wants sessions, track while anyone is
    /// active; with no one, leave if someone was served, else tombstone.
    fn model(kind: Kind, event: Event, s: Subs, done_any: bool, m: &Masks, n: usize) -> Transition {
        let mut t = Transition {
            next: kind,
            subs: Subs::default(),
            done_any,
            actions: Actions::default(),
        };
        for i in 0..n {
            let (now, want, did) = fig4(kind, event, &s, m, i);
            let sets = [
                (&mut t.subs.matched, now == St::Matched),
                (&mut t.subs.live, now == St::Live),
                (&mut t.subs.want_parse, want),
                (&mut t.actions.emit, did.emit),
                (&mut t.actions.drop_sub, did.kill),
                (&mut t.actions.finish, did.finish),
                (&mut t.actions.terminate, did.terminate),
            ];
            for (set, member) in sets {
                if member {
                    set.insert(i);
                }
            }
            t.done_any |= did.finish;
        }
        let active = !t.subs.active().is_empty();
        let wants = !t.subs.want_parse.is_empty();
        let settle = |t: &mut Transition, at: Kind, cause| {
            t.next = at;
            if active {
                if !wants && at != Kind::Dropped {
                    t.next = Kind::Tracking;
                }
            } else if t.done_any {
                t.actions.release = true;
            } else {
                t.actions.tombstone = Some(cause);
                t.next = Kind::Dropped;
            }
        };
        match event {
            Event::Opened { probeable } if probeable && !s.want_parse.is_empty() => {
                t.next = Kind::Probing;
                t.actions.probe = true;
            }
            Event::Opened { .. } => settle(&mut t, Kind::Tracking, DiscardCause::ConnFilter),
            Event::ServiceIdentified(_) if wants => {
                t.next = Kind::Parsing;
                t.actions.parse = true;
            }
            Event::ServiceIdentified(_) => settle(&mut t, Kind::Tracking, DiscardCause::ConnFilter),
            Event::ConnLayerFailed => settle(&mut t, kind, DiscardCause::ConnFilter),
            Event::Session { .. } => {}
            Event::SessionBatch { .. } => settle(&mut t, kind, DiscardCause::SessionFilter),
            Event::Ended => {
                t.actions.session_filter = kind == Kind::Parsing && !s.active().is_empty();
                t.actions.release = true;
            }
            Event::Rebound { .. } if kind == Kind::Dropped => {}
            Event::Rebound { .. } if !active => t.actions.release = true,
            Event::Rebound { .. } => {
                if !wants && kind != Kind::Tracking {
                    t.next = Kind::Tracking;
                }
            }
        }
        t
    }

    thread_local! {
        /// Rebound transitions that promoted someone, on this thread.
        pub(in crate::tracker) static PROMOTIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Holds one transition the tracker takes to the model (every
    /// `Machine::apply` in a test build runs this).
    pub(in crate::tracker) fn audit(
        kind: Kind,
        event: Event,
        s: Subs,
        done_any: bool,
        m: &Masks,
        t: &Transition,
    ) {
        let want = model(kind, event, s, done_any, m, m.all.len());
        assert_eq!(
            *t, want,
            "step diverged from the Figure-4 model on {kind:?} {event:?} {s:?} {done_any} {m:?}"
        );
        if matches!(event, Event::Rebound { .. }) && !t.actions.emit.is_empty() {
            PROMOTIONS.with(|p| p.set(p.get() + 1));
        }
    }

    /// A set of the subscriptions among `0..2` that `pick` selects.
    fn set2(pick: impl Fn(usize) -> bool) -> SubscriptionSet {
        let mut set = SubscriptionSet::empty();
        for i in (0..2).filter(|&i| pick(i)) {
            set.insert(i);
        }
        set
    }

    /// A verdict giving subscription `i` the state `of[i]`.
    fn verdict(of: [St; 2]) -> ConnVerdict {
        ConnVerdict {
            matched: set2(|i| of[i] == St::Matched),
            live: set2(|i| of[i] == St::Live),
        }
    }

    /// Every event kind, with every per-subscription input, for two.
    fn events() -> Vec<Event> {
        const STS: [St; 3] = [St::Gone, St::Live, St::Matched];
        let mut out = vec![Event::ConnLayerFailed, Event::Ended];
        for b in [false, true] {
            out.push(Event::Opened { probeable: b });
            for done in [false, true] {
                out.push(Event::SessionBatch { done, reject: b });
            }
        }
        for hits in 0..4u64 {
            out.push(Event::Session {
                hits: set2(|i| hits >> i & 1 == 1),
            });
        }
        for (a, b) in STS.iter().flat_map(|a| STS.iter().map(move |b| (*a, *b))) {
            out.push(Event::ServiceIdentified(verdict([a, b])));
            for kept in 0..4u64 {
                let kept = set2(|i| kept >> i & 1 == 1);
                out.push(Event::Rebound {
                    kept,
                    verdict: verdict([a, b]),
                });
            }
        }
        out
    }

    /// (a) Every phase kind × event × per-subscription state (gone,
    /// undecided, matched still parsing, matched done parsing) × level
    /// (packet / connection / session) × stream × post-match packets ×
    /// `done_any`, for two subscriptions: `step` equals the composition of
    /// the single-subscription machines in next phase, sets, kills,
    /// finishes, emits, drains and the discard cause.
    #[test]
    fn step_is_the_composition_of_single_subscription_machines() {
        const KINDS: [Kind; 4] = [Kind::Probing, Kind::Parsing, Kind::Tracking, Kind::Dropped];
        // (state, wants parsing) pairs a live connection can hold.
        const STATES: [(St, bool); 4] = [
            (St::Gone, false),
            (St::Live, true),
            (St::Matched, true),
            (St::Matched, false),
        ];
        let events = events();
        assert_eq!(events.len(), 57);
        let mut cases = 0u64;
        // One subscription's configuration: state × level × stream × post.
        let configs = STATES.len() * 3 * 2 * 2;
        for c in 0..configs * configs {
            let (mut s, mut m) = (Subs::default(), Masks::default());
            m.all = SubscriptionSet::first_n(2);
            for (i, mut x) in [c % configs, c / configs].into_iter().enumerate() {
                let (state, want) = STATES[x % STATES.len()];
                x /= STATES.len();
                let bits = [
                    (&mut s.matched, state == St::Matched),
                    (&mut s.live, state == St::Live),
                    (&mut s.want_parse, want),
                    (&mut m.packet, x % 3 == 0),
                    (&mut m.session, x % 3 == 2),
                    (&mut m.stream, x / 3 % 2 == 1),
                    (&mut m.post, x / 6 == 1),
                ];
                for (set, member) in bits {
                    if member {
                        set.insert(i);
                    }
                }
            }
            for (kind, done_any) in KINDS.into_iter().flat_map(|k| [(k, false), (k, true)]) {
                for &event in &events {
                    assert_eq!(
                        step(kind, event, s, done_any, &m),
                        model(kind, event, s, done_any, &m, 2),
                        "{kind:?} {event:?} {s:?} {done_any} {m:?}"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2304 * 4 * 2 * 57);
    }
}
