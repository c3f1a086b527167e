//! Built-in subscribable types, one per data abstraction level (§3.2.2).
//!
//! Their tracked types keep only what they alone know: the tuple, the
//! stamps and the flow counters are read from the [`ConnView`] the hooks
//! borrow, and stream order is the reassembler's, taken as delivered —
//! and kept as delivered: a byte stream is a chain of views into the
//! frames, never a receive buffer the payload is copied into.

use std::ops::Range;

use retina_conntrack::{Dir, FiveTuple};
use retina_nic::{Mbuf, StreamBytes};
use retina_protocols::http::HttpTransaction;
use retina_protocols::tls::TlsHandshake;
use retina_protocols::Session;
use retina_wire::ParsedPacket;

use crate::erased::TypedEmitter;
use crate::subscription::{ConnView, Level, MatchedSession, Subscribable, Tracked};

/// Cap on frames a [`ZcFrameTracker`] holds per connection before the
/// filter resolves (protects memory against filters that never resolve
/// on a pathological connection). For [`ZcFrame`] only: a byte stream has
/// its own bounds, [`STREAM_CAPTURE_LIMIT`] and
/// [`STREAM_CAPTURE_SEGMENTS`], which hold after the match too.
const PRE_MATCH_BUFFER_CAP: usize = 4096;

// ------------------------------------------------------------- ZcFrame

/// Raw-packet subscription (L2–3): the callback receives each frame of
/// matching traffic, zero-copy, in arrival order.
#[derive(Debug, Clone)]
pub struct ZcFrame {
    /// The raw frame (with receive metadata).
    pub mbuf: Mbuf,
}

impl ZcFrame {
    /// Frame bytes.
    pub fn data(&self) -> &[u8] {
        self.mbuf.data()
    }
}

impl Subscribable for ZcFrame {
    type Tracked = ZcFrameTracker;

    fn level() -> Level {
        Level::Packet
    }

    fn parsers() -> Vec<&'static str> {
        Vec::new()
    }

    fn from_mbuf(mbuf: &Mbuf) -> Option<Self> {
        Some(ZcFrame { mbuf: mbuf.clone() })
    }
}

/// Tracker for [`ZcFrame`]: buffers frames by reference until the filter
/// resolves, then streams them through.
#[derive(Debug)]
pub struct ZcFrameTracker {
    buffered: Vec<Mbuf>,
    overflowed: bool,
}

impl Tracked for ZcFrameTracker {
    type Out = ZcFrame;

    fn new(_tuple: &FiveTuple, _ts: u64) -> Self {
        ZcFrameTracker {
            buffered: Vec::new(),
            overflowed: false,
        }
    }

    fn pre_match(&mut self, mbuf: &Mbuf, _pkt: &ParsedPacket) {
        if self.buffered.len() < PRE_MATCH_BUFFER_CAP {
            self.buffered.push(mbuf.clone());
        } else {
            self.overflowed = true;
        }
    }

    fn on_match(
        &mut self,
        _conn: &ConnView<'_>,
        _service: Option<&'static str>,
        _session: Option<MatchedSession<'_>>,
        out: &mut TypedEmitter<'_, ZcFrame>,
    ) {
        for mbuf in self.buffered.drain(..) {
            out.push(ZcFrame { mbuf });
        }
    }

    fn post_match(
        &mut self,
        mbuf: &Mbuf,
        _pkt: &ParsedPacket,
        out: &mut TypedEmitter<'_, ZcFrame>,
    ) {
        out.push(ZcFrame { mbuf: mbuf.clone() });
    }

    fn on_terminate(&mut self, _conn: &ConnView<'_>, _out: &mut TypedEmitter<'_, ZcFrame>) {}

    fn needs_packets_post_match() -> bool {
        true
    }
}

// ----------------------------------------------------------- ConnRecord

/// Reassembled-connection subscription (L4): one record per connection,
/// delivered when the connection terminates or expires.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnRecord {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// First packet timestamp (ns).
    pub first_seen_ns: u64,
    /// Last packet timestamp (ns).
    pub last_seen_ns: u64,
    /// Packets originator → responder.
    pub pkts_up: u64,
    /// Packets responder → originator.
    pub pkts_down: u64,
    /// Payload bytes originator → responder.
    pub bytes_up: u64,
    /// Payload bytes responder → originator.
    pub bytes_down: u64,
    /// Out-of-order arrivals originator → responder.
    pub ooo_up: u64,
    /// Out-of-order arrivals responder → originator.
    pub ooo_down: u64,
    /// Whether the connection established.
    pub established: bool,
    /// Whether TCP teardown was observed (vs. timeout expiry).
    pub terminated: bool,
    /// Single unanswered SYN (scan-like).
    pub single_syn: bool,
    /// Probed L7 protocol, when the pipeline identified one.
    pub service: Option<&'static str>,
}

impl ConnRecord {
    /// Connection duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.last_seen_ns.saturating_sub(self.first_seen_ns)
    }

    /// Total payload bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

impl Subscribable for ConnRecord {
    type Tracked = ConnRecordTracker;

    fn level() -> Level {
        Level::Connection
    }

    fn parsers() -> Vec<&'static str> {
        Vec::new()
    }
}

/// Tracker for [`ConnRecord`]: nothing is buffered — the record is built
/// from the connection view at termination. The one thing only this
/// state knows is the service the subscription matched with.
#[derive(Debug)]
pub struct ConnRecordTracker {
    service: Option<&'static str>,
}

impl Tracked for ConnRecordTracker {
    type Out = ConnRecord;

    fn new(_tuple: &FiveTuple, _ts: u64) -> Self {
        ConnRecordTracker { service: None }
    }

    fn pre_match(&mut self, _mbuf: &Mbuf, _pkt: &ParsedPacket) {}

    fn on_match(
        &mut self,
        _conn: &ConnView<'_>,
        service: Option<&'static str>,
        _session: Option<MatchedSession<'_>>,
        _out: &mut TypedEmitter<'_, ConnRecord>,
    ) {
        self.service = service.or(self.service);
    }

    fn post_match(
        &mut self,
        _mbuf: &Mbuf,
        _pkt: &ParsedPacket,
        _out: &mut TypedEmitter<'_, ConnRecord>,
    ) {
    }

    fn on_terminate(&mut self, conn: &ConnView<'_>, out: &mut TypedEmitter<'_, ConnRecord>) {
        let flow = conn.flow;
        out.push(ConnRecord {
            tuple: *conn.tuple,
            first_seen_ns: conn.first_seen_ns,
            last_seen_ns: conn.last_seen_ns,
            pkts_up: flow.ctos.packets,
            pkts_down: flow.stoc.packets,
            bytes_up: flow.ctos.bytes,
            bytes_down: flow.stoc.bytes,
            ooo_up: flow.ctos.ooo_packets,
            ooo_down: flow.stoc.ooo_packets,
            established: conn.established,
            terminated: flow.terminated(),
            single_syn: flow.is_single_syn(),
            service: self.service,
        });
    }
}

// ------------------------------------------------------ TlsHandshakeData

/// Parsed-TLS-handshake subscription (L5–7). Delivered as soon as the
/// handshake completes and passes the session filter; the connection is
/// then dropped from the tracker — no cycles are spent on the encrypted
/// stream (§5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct TlsHandshakeData {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// The parsed handshake.
    pub tls: TlsHandshake,
    /// Timestamp of delivery (last handshake packet).
    pub ts_ns: u64,
}

impl Subscribable for TlsHandshakeData {
    type Tracked = SessionLevelTracker<TlsHandshakeData>;

    fn level() -> Level {
        Level::Session
    }

    fn parsers() -> Vec<&'static str> {
        vec!["tls"]
    }
}

impl FromSession for TlsHandshakeData {
    fn from_session(tuple: &FiveTuple, session: MatchedSession<'_>, ts_ns: u64) -> Option<Self> {
        match session.into_owned_if(|s| matches!(s, Session::Tls(_)))? {
            Session::Tls(tls) => Some(TlsHandshakeData {
                tuple: *tuple,
                tls,
                ts_ns,
            }),
            _ => None,
        }
    }
}

// --------------------------------------------------- HttpTransactionData

/// Parsed-HTTP-transaction subscription (L5–7): one per request/response
/// exchange, including keep-alive connections.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpTransactionData {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// The parsed transaction.
    pub http: HttpTransaction,
    /// Timestamp of delivery.
    pub ts_ns: u64,
}

impl Subscribable for HttpTransactionData {
    type Tracked = SessionLevelTracker<HttpTransactionData>;

    fn level() -> Level {
        Level::Session
    }

    fn parsers() -> Vec<&'static str> {
        vec!["http"]
    }
}

impl FromSession for HttpTransactionData {
    fn from_session(tuple: &FiveTuple, session: MatchedSession<'_>, ts_ns: u64) -> Option<Self> {
        match session.into_owned_if(|s| matches!(s, Session::Http(_)))? {
            Session::Http(http) => Some(HttpTransactionData {
                tuple: *tuple,
                http,
                ts_ns,
            }),
            _ => None,
        }
    }
}

// ------------------------------------------------------ DnsTransactionData

/// Parsed-DNS-exchange subscription (L5–7): one per query/response pair
/// (or unanswered query, delivered at connection teardown).
#[derive(Debug, Clone, PartialEq)]
pub struct DnsTransactionData {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// The parsed exchange.
    pub dns: retina_protocols::dns::DnsMessage,
    /// Timestamp of delivery.
    pub ts_ns: u64,
}

impl Subscribable for DnsTransactionData {
    type Tracked = SessionLevelTracker<DnsTransactionData>;

    fn level() -> Level {
        Level::Session
    }

    fn parsers() -> Vec<&'static str> {
        vec!["dns"]
    }
}

impl FromSession for DnsTransactionData {
    fn from_session(tuple: &FiveTuple, session: MatchedSession<'_>, ts_ns: u64) -> Option<Self> {
        match session.into_owned_if(|s| matches!(s, Session::Dns(_)))? {
            Session::Dns(dns) => Some(DnsTransactionData {
                tuple: *tuple,
                dns,
                ts_ns,
            }),
            _ => None,
        }
    }
}

// -------------------------------------------------------- SshHandshakeData

/// Parsed-SSH-handshake subscription (L5–7): the banner exchange (and
/// algorithm negotiation, when observed) of each SSH connection.
#[derive(Debug, Clone, PartialEq)]
pub struct SshHandshakeData {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// The parsed exchange.
    pub ssh: retina_protocols::ssh::SshHandshake,
    /// Timestamp of delivery.
    pub ts_ns: u64,
}

impl Subscribable for SshHandshakeData {
    type Tracked = SessionLevelTracker<SshHandshakeData>;

    fn level() -> Level {
        Level::Session
    }

    fn parsers() -> Vec<&'static str> {
        vec!["ssh"]
    }
}

impl FromSession for SshHandshakeData {
    fn from_session(tuple: &FiveTuple, session: MatchedSession<'_>, ts_ns: u64) -> Option<Self> {
        match session.into_owned_if(|s| matches!(s, Session::Ssh(_)))? {
            Session::Ssh(ssh) => Some(SshHandshakeData {
                tuple: *tuple,
                ssh,
                ts_ns,
            }),
            _ => None,
        }
    }
}

// --------------------------------------------------------- SessionRecord

/// Generic parsed-session subscription: delivers every session of every
/// registered protocol that matches the filter (used e.g. for traffic
/// profiling across protocols).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// The parsed session.
    pub session: Session,
    /// Timestamp of delivery.
    pub ts_ns: u64,
}

impl Subscribable for SessionRecord {
    type Tracked = SessionLevelTracker<SessionRecord>;

    fn level() -> Level {
        Level::Session
    }

    fn parsers() -> Vec<&'static str> {
        vec!["tls", "http", "dns", "ssh", "quic"]
    }
}

impl FromSession for SessionRecord {
    fn from_session(tuple: &FiveTuple, session: MatchedSession<'_>, ts_ns: u64) -> Option<Self> {
        Some(SessionRecord {
            tuple: *tuple,
            session: session.into_owned(),
            ts_ns,
        })
    }
}

/// Conversion from a parsed session into a session-level subscribable.
pub trait FromSession: Sized {
    /// Builds the subscription datum from a matched session — taking it
    /// by value, which moves it for the last subscriber and clones it for
    /// the others — or `None`, taking nothing, when the session is a
    /// different protocol.
    fn from_session(tuple: &FiveTuple, session: MatchedSession<'_>, ts_ns: u64) -> Option<Self>;
}

/// Shared tracker for session-level subscriptions: no state at all —
/// the session itself is the payload, stamped with the connection's
/// tuple and the time of the packet that completed it, and the
/// connection is dropped as soon as the protocol's sessions are
/// exhausted.
#[derive(Debug)]
pub struct SessionLevelTracker<S>(std::marker::PhantomData<fn() -> S>);

impl<S: FromSession + Send + 'static> Tracked for SessionLevelTracker<S> {
    type Out = S;

    fn new(_tuple: &FiveTuple, _ts: u64) -> Self {
        SessionLevelTracker(std::marker::PhantomData)
    }

    fn pre_match(&mut self, _mbuf: &Mbuf, _pkt: &ParsedPacket) {}

    fn on_match(
        &mut self,
        conn: &ConnView<'_>,
        _service: Option<&'static str>,
        session: Option<MatchedSession<'_>>,
        out: &mut TypedEmitter<'_, S>,
    ) {
        let datum = session.and_then(|s| S::from_session(conn.tuple, s, conn.last_seen_ns));
        if let Some(datum) = datum {
            out.push(datum);
        }
    }

    fn post_match(&mut self, _mbuf: &Mbuf, _pkt: &ParsedPacket, _out: &mut TypedEmitter<'_, S>) {}

    fn on_terminate(&mut self, _conn: &ConnView<'_>, _out: &mut TypedEmitter<'_, S>) {}
}

// ------------------------------------------------------------ ConnBytes

/// Reconstructed byte-stream subscription (L4): the fully ordered
/// payload bytes of each matching connection, delivered at termination.
///
/// The streams are [`StreamBytes`]: chains of views into the frames that
/// carried the payload, in the reassembler's order. Nothing was copied to
/// build them — not before the filter matched, not after (§5.2) — so a
/// callback reads them in place, or pays for the flat copy where it runs
/// (a dispatch worker, when the subscription is dispatched):
///
/// ```
/// # use retina_core::subscribables::ConnBytes;
/// fn callback(conn: ConnBytes) {
///     let in_place: usize = conn.client_stream.chunks().map(<[u8]>::len).sum();
///     let flat: Vec<u8> = conn.client_stream.to_vec(); // the one copy, yours
///     assert_eq!(in_place, flat.len());
/// }
/// ```
///
/// A live datum keeps the frames it views charged to their mempool: at
/// most [`STREAM_CAPTURE_SEGMENTS`] per direction, ~719 for a full
/// [`STREAM_CAPTURE_LIMIT`] of MSS-sized segments (see [`StreamBytes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnBytes {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// Ordered originator → responder payload.
    pub client_stream: StreamBytes,
    /// Ordered responder → originator payload.
    pub server_stream: StreamBytes,
    /// True when either stream hit a capture cap (bytes or segments) and
    /// was truncated.
    pub truncated: bool,
}

impl Subscribable for ConnBytes {
    type Tracked = ConnBytesTracker;

    fn level() -> Level {
        Level::Connection
    }

    fn parsers() -> Vec<&'static str> {
        Vec::new()
    }
}

/// Per-direction capture cap for [`ConnBytes`], in payload bytes: the
/// bound on what a connection's streams deliver, before the filter
/// matches and after.
pub const STREAM_CAPTURE_LIMIT: usize = 1 << 20;

/// Per-direction guard on the frames a [`ConnBytes`] stream pins: a
/// segment holds its whole frame and pool charge however little payload
/// it carries, so bytes alone would let a sender of 1-byte segments pin a
/// million frames. Full-MSS traffic reaches [`STREAM_CAPTURE_LIMIT`] at
/// ~719 segments and never sees this; a stream that does is `truncated`.
pub const STREAM_CAPTURE_SEGMENTS: usize = 4096;

/// Tracker for [`ConnBytes`]. Holding is the stream: each in-order
/// segment ([`Tracked::on_stream`]) is kept as a view, whether or not the
/// filter has matched yet, so a match has nothing to replay and
/// termination hands the two chains over as they are.
#[derive(Debug)]
pub struct ConnBytesTracker {
    client_stream: StreamBytes,
    server_stream: StreamBytes,
    truncated: bool,
}

impl Tracked for ConnBytesTracker {
    type Out = ConnBytes;

    fn new(_tuple: &FiveTuple, _ts: u64) -> Self {
        ConnBytesTracker {
            client_stream: StreamBytes::new(),
            server_stream: StreamBytes::new(),
            truncated: false,
        }
    }

    fn pre_match(&mut self, _mbuf: &Mbuf, _pkt: &ParsedPacket) {}

    fn on_stream(&mut self, dir: Dir, mbuf: &Mbuf, payload: Range<usize>) {
        let stream = match dir {
            Dir::OrigToResp => &mut self.client_stream,
            Dir::RespToOrig => &mut self.server_stream,
        };
        let room = if stream.segments() < STREAM_CAPTURE_SEGMENTS {
            STREAM_CAPTURE_LIMIT - stream.len()
        } else {
            0
        };
        self.truncated |= payload.len() > room;
        // The segment that crosses the byte cap is cut to fit; later ones
        // (and any past the segment guard) are not held at all.
        stream.push(mbuf, payload.start..payload.start + payload.len().min(room));
    }

    fn on_match(
        &mut self,
        _conn: &ConnView<'_>,
        _service: Option<&'static str>,
        _session: Option<MatchedSession<'_>>,
        _out: &mut TypedEmitter<'_, ConnBytes>,
    ) {
    }

    fn post_match(
        &mut self,
        _mbuf: &Mbuf,
        _pkt: &ParsedPacket,
        _out: &mut TypedEmitter<'_, ConnBytes>,
    ) {
    }

    fn on_terminate(&mut self, conn: &ConnView<'_>, out: &mut TypedEmitter<'_, ConnBytes>) {
        out.push(ConnBytes {
            tuple: *conn.tuple,
            client_stream: std::mem::take(&mut self.client_stream),
            server_stream: std::mem::take(&mut self.server_stream),
            truncated: self.truncated,
        });
    }

    fn needs_stream() -> bool {
        true
    }
}
