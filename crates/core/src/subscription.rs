//! The subscription programming model (§3.2, Appendix A).
//!
//! A *subscribable type* declares the data abstraction the user's
//! callback receives and how the framework must reconstruct it. Its
//! associated *tracked type* holds per-connection reconstruction state
//! and is driven by the connection tracker through the match lifecycle:
//!
//! ```text
//! new → pre_match* / on_stream*   (engaged: hold what may be needed)
//!     → on_match                  (filter fully matched: emit ready data)
//!     → post_match* / on_stream*  (emit / keep holding for the rest of the conn)
//!     → on_terminate              (emit end-of-connection data)
//! ```
//!
//! A stream subscription holds views, not bytes: what `on_stream` hands
//! over is kept by reference on both sides of the match (so `on_match`
//! has nothing to replay), under one bound — for the built-in
//! [`crate::subscribables::ConnBytes`],
//! [`crate::subscribables::STREAM_CAPTURE_LIMIT`] payload bytes, and
//! [`crate::subscribables::STREAM_CAPTURE_SEGMENTS`] views because each
//! pins a whole frame — and the flat copy — if anyone
//! wants one — is made by the subscriber, where its callback runs.
//!
//! **One owner per connection fact.** The five-tuple, the first- and
//! last-packet stamps and the flow counters live once, in the tracker's
//! table entry (a flow past its first packet in the core's flow store,
//! which the entry indexes); `on_match` and `on_terminate` borrow them as
//! a [`ConnView`]. A tracked type keeps only what it alone knows (a held
//! frame, the service it matched with, views of the stream), so no copy
//! can drift from the original.
//!
//! **One owner of stream order.** The connection's reassembler orders
//! the stream once; [`Tracked::on_stream`] receives each in-order
//! segment *by reference* — the frame and the payload's range in it.
//! Engaged subscriptions (matched or still undecided) see the stream
//! pre-match and decide what to hold; none re-derives order from
//! sequence numbers.
//!
//! The emitting hooks write to a [`TypedEmitter`]: `out.push(datum)`
//! hands one datum to the runtime — into the subscription's output
//! lane, as itself, never boxed and never staged in a vector of the
//! hook's own.

use std::ops::Range;

use retina_conntrack::{Dir, FiveTuple, TcpFlow};
use retina_nic::Mbuf;
use retina_protocols::Session;
use retina_wire::ParsedPacket;

use crate::erased::TypedEmitter;

/// The data abstraction level of a subscription (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Raw packets (L2–3): callback may run straight off the packet
    /// filter with no connection state.
    Packet,
    /// Reassembled connections (L4): requires tracking, no app-layer
    /// parsing beyond what the filter itself needs.
    Connection,
    /// Parsed application-layer sessions (L5–7).
    Session,
}

/// A type users can subscribe to. Mirrors the paper's `Subscribable`
/// trait (Figure 11): the level decides when the callback can run, and
/// `parsers()` populates the parser registry for protocol probing.
pub trait Subscribable: Send + Sized + 'static {
    /// Per-connection reconstruction state.
    type Tracked: Tracked<Out = Self>;

    /// Abstraction level.
    fn level() -> Level;

    /// Application-layer parsers this type needs (beyond those the
    /// filter requires).
    fn parsers() -> Vec<&'static str>;

    /// Fast path for packet-level subscriptions: build the subscription
    /// datum straight from a frame when the packet filter matched
    /// terminally, bypassing connection tracking entirely (§5.1).
    fn from_mbuf(mbuf: &Mbuf) -> Option<Self> {
        let _ = mbuf;
        None
    }
}

/// What the tracker knows about a connection, lent to
/// [`Tracked::on_match`] and [`Tracked::on_terminate`] for the call:
/// every field is read from the connection's table entry, its one owner
/// (the flow of a connection still at its first packet is hatched from
/// the entry for the call).
#[derive(Debug, Clone, Copy)]
pub struct ConnView<'a> {
    /// Oriented five-tuple (originator = first packet seen).
    pub tuple: &'a FiveTuple,
    /// Timestamp of the connection's first packet (ns).
    pub first_seen_ns: u64,
    /// Timestamp of its most recent packet (ns) — inside `on_match`, the
    /// packet that completed the match or the session.
    pub last_seen_ns: u64,
    /// Whether the connection established.
    pub established: bool,
    /// Per-direction counters and TCP handshake / teardown state.
    pub flow: &'a TcpFlow,
}

/// The session a connection's filter matched on, lent to
/// [`Tracked::on_match`]: [`get`](Self::get) borrows it, and
/// [`into_owned`](Self::into_owned) takes it — moved out of the core's
/// buffer for the last subscription this match emits to, cloned for any
/// earlier one. A session no subscriber takes is dropped after the match.
#[derive(Debug)]
pub struct MatchedSession<'a> {
    session: &'a mut Option<Session>,
    last: bool,
}

impl<'a> MatchedSession<'a> {
    /// `session`, if there is one, for the subscription that is `last` to
    /// be emitted to or not.
    pub(crate) fn of(session: &'a mut Option<Session>, last: bool) -> Option<Self> {
        session
            .is_some()
            .then_some(MatchedSession { session, last })
    }

    /// The session.
    pub fn get(&self) -> &Session {
        self.session
            .as_ref()
            .expect("a session is taken only by the last subscriber")
    }

    /// The session by value: moved if this is the last subscription
    /// served, cloned if not.
    pub fn into_owned(self) -> Session {
        if self.last {
            self.session
                .take()
                .expect("a session is taken only by the last subscriber")
        } else {
            self.get().clone()
        }
    }

    /// [`into_owned`](Self::into_owned) if `wanted` accepts the session;
    /// `None`, and no clone, if not.
    pub fn into_owned_if(self, wanted: impl FnOnce(&Session) -> bool) -> Option<Session> {
        wanted(self.get()).then(|| self.into_owned())
    }
}

/// Per-connection state for a subscribable type (the paper's
/// `Trackable`, Figure 11). Implementations buffer *lazily*: before a
/// full filter match they retain only what the subscription could still
/// need, so data for connections that end up filtered out was never
/// copied or parsed.
pub trait Tracked: Send {
    /// The subscribable type this tracks.
    type Out;

    /// Creates state for a new connection.
    fn new(tuple: &FiveTuple, first_ts_ns: u64) -> Self;

    /// A packet arrived before the filter fully matched. Lazy principle:
    /// hold references (mbuf clones), do not copy or parse.
    fn pre_match(&mut self, mbuf: &Mbuf, pkt: &ParsedPacket);

    /// The next in-order payload segment of direction `dir`,
    /// `mbuf.data()[payload]`. Delivered, when [`Tracked::needs_stream`]
    /// is true, from the moment the subscription is engaged — before the
    /// match and after it, and the same on both sides: hold the
    /// reference (a [`retina_nic::StreamBytes`] view, or an mbuf clone
    /// and the range), copy nothing.
    fn on_stream(&mut self, dir: Dir, mbuf: &Mbuf, payload: Range<usize>) {
        let _ = (dir, mbuf, payload);
    }

    /// The filter fully matched — `service` is the probed L7 protocol and
    /// `session` the matched session, when available: borrow it, or take
    /// it by value (moved for the last subscription served). Session-level
    /// subscriptions are called once per session the connection goes on
    /// to produce. Emit any data that is ready.
    fn on_match(
        &mut self,
        conn: &ConnView<'_>,
        service: Option<&'static str>,
        session: Option<MatchedSession<'_>>,
        out: &mut TypedEmitter<'_, Self::Out>,
    );

    /// A packet arrived after a full match.
    fn post_match(
        &mut self,
        mbuf: &Mbuf,
        pkt: &ParsedPacket,
        out: &mut TypedEmitter<'_, Self::Out>,
    );

    /// The connection ended (naturally or by timeout) after a full
    /// match. Emit end-of-connection data.
    fn on_terminate(&mut self, conn: &ConnView<'_>, out: &mut TypedEmitter<'_, Self::Out>);

    /// Whether the tracker still needs per-packet delivery after a full
    /// match. Returning `false` lets the tracker skip `post_match`
    /// entirely (e.g. TLS handshakes need nothing after the handshake).
    fn needs_packets_post_match() -> bool {
        false
    }

    /// Whether the subscription needs the in-order payload stream
    /// ([`Tracked::on_stream`]); keeps the reassembler active even after
    /// the app-layer parser is done.
    fn needs_stream() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_equality() {
        assert_eq!(Level::Packet, Level::Packet);
        assert_ne!(Level::Packet, Level::Session);
    }
}
