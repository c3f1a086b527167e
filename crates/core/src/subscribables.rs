//! Built-in subscribable types, one per data abstraction level (§3.2.2).

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use retina_conntrack::{Dir, FiveTuple, TcpFlow};
use retina_nic::Mbuf;
use retina_protocols::http::HttpTransaction;
use retina_protocols::tls::TlsHandshake;
use retina_protocols::Session;
use retina_wire::ParsedPacket;

use crate::erased::TypedEmitter;
use crate::subscription::{Level, Subscribable, Tracked};

/// Cap on packets buffered per connection before the filter resolves
/// (protects memory against filters that never resolve on a pathological
/// connection).
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
        _service: Option<&str>,
        _session: Option<&Session>,
        _flow: &TcpFlow,
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

    fn on_terminate(&mut self, _flow: &TcpFlow, _out: &mut TypedEmitter<'_, ZcFrame>) {}

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
    pub service: Option<String>,
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
/// from flow counters at termination.
#[derive(Debug)]
pub struct ConnRecordTracker {
    tuple: FiveTuple,
    service: Option<String>,
}

impl Tracked for ConnRecordTracker {
    type Out = ConnRecord;

    fn new(tuple: &FiveTuple, _ts: u64) -> Self {
        ConnRecordTracker {
            tuple: *tuple,
            service: None,
        }
    }

    fn pre_match(&mut self, _mbuf: &Mbuf, _pkt: &ParsedPacket) {}

    fn on_match(
        &mut self,
        service: Option<&str>,
        _session: Option<&Session>,
        _flow: &TcpFlow,
        _out: &mut TypedEmitter<'_, ConnRecord>,
    ) {
        if let Some(s) = service {
            self.service = Some(s.to_string());
        }
    }

    fn post_match(
        &mut self,
        _mbuf: &Mbuf,
        _pkt: &ParsedPacket,
        _out: &mut TypedEmitter<'_, ConnRecord>,
    ) {
    }

    fn on_terminate(&mut self, flow: &TcpFlow, out: &mut TypedEmitter<'_, ConnRecord>) {
        out.push(ConnRecord {
            tuple: self.tuple,
            first_seen_ns: flow.first_seen_ns,
            last_seen_ns: flow.last_seen_ns,
            pkts_up: flow.ctos.packets,
            pkts_down: flow.stoc.packets,
            bytes_up: flow.ctos.bytes,
            bytes_down: flow.stoc.bytes,
            ooo_up: flow.ctos.ooo_packets,
            ooo_down: flow.stoc.ooo_packets,
            established: flow.established,
            terminated: flow.terminated(),
            single_syn: flow.is_single_syn(),
            service: self.service.clone(),
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
    fn from_session(tuple: &FiveTuple, session: &Session, ts_ns: u64) -> Option<Self> {
        match session {
            Session::Tls(tls) => Some(TlsHandshakeData {
                tuple: *tuple,
                tls: tls.clone(),
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
    fn from_session(tuple: &FiveTuple, session: &Session, ts_ns: u64) -> Option<Self> {
        match session {
            Session::Http(http) => Some(HttpTransactionData {
                tuple: *tuple,
                http: http.clone(),
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
    fn from_session(tuple: &FiveTuple, session: &Session, ts_ns: u64) -> Option<Self> {
        match session {
            Session::Dns(dns) => Some(DnsTransactionData {
                tuple: *tuple,
                dns: dns.clone(),
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
    fn from_session(tuple: &FiveTuple, session: &Session, ts_ns: u64) -> Option<Self> {
        match session {
            Session::Ssh(ssh) => Some(SshHandshakeData {
                tuple: *tuple,
                ssh: ssh.clone(),
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
    fn from_session(tuple: &FiveTuple, session: &Session, ts_ns: u64) -> Option<Self> {
        Some(SessionRecord {
            tuple: *tuple,
            session: session.clone(),
            ts_ns,
        })
    }
}

/// Conversion from a parsed session into a session-level subscribable.
pub trait FromSession: Sized {
    /// Builds the subscription datum from a matched session, or `None`
    /// when the session is a different protocol.
    fn from_session(tuple: &FiveTuple, session: &Session, ts_ns: u64) -> Option<Self>;
}

/// Shared tracker for session-level subscriptions: no buffering at all —
/// the session itself is the payload, and the connection is dropped as
/// soon as the protocol's sessions are exhausted.
#[derive(Debug)]
pub struct SessionLevelTracker<S> {
    tuple: FiveTuple,
    last_ts: u64,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl<S: FromSession + Send + 'static> Tracked for SessionLevelTracker<S> {
    type Out = S;

    fn new(tuple: &FiveTuple, ts: u64) -> Self {
        SessionLevelTracker {
            tuple: *tuple,
            last_ts: ts,
            _marker: std::marker::PhantomData,
        }
    }

    fn pre_match(&mut self, mbuf: &Mbuf, _pkt: &ParsedPacket) {
        self.last_ts = mbuf.timestamp_ns;
    }

    fn on_match(
        &mut self,
        _service: Option<&str>,
        session: Option<&Session>,
        _flow: &TcpFlow,
        out: &mut TypedEmitter<'_, S>,
    ) {
        if let Some(session) = session {
            if let Some(data) = S::from_session(&self.tuple, session, self.last_ts) {
                out.push(data);
            }
        }
    }

    fn post_match(&mut self, _mbuf: &Mbuf, _pkt: &ParsedPacket, _out: &mut TypedEmitter<'_, S>) {}

    fn on_terminate(&mut self, _flow: &TcpFlow, _out: &mut TypedEmitter<'_, S>) {}
}

// ------------------------------------------------------------ ConnBytes

/// Reconstructed byte-stream subscription (L4): the fully ordered
/// payload bytes of each matching connection, delivered at termination.
///
/// Reconstruction is lazy: before the filter matches, only mbuf
/// references are held; bytes are copied into the stream buffers only
/// once the connection is known to match (§5's TLS-byte-streams example).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnBytes {
    /// Oriented five-tuple.
    pub tuple: FiveTuple,
    /// Ordered originator → responder payload.
    pub client_stream: Vec<u8>,
    /// Ordered responder → originator payload.
    pub server_stream: Vec<u8>,
    /// True when either stream hit the capture cap and was truncated.
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

/// Default per-direction capture cap for [`ConnBytes`].
pub const STREAM_CAPTURE_LIMIT: usize = 1 << 20;

/// Tracker for [`ConnBytes`].
#[derive(Debug)]
pub struct ConnBytesTracker {
    tuple: FiveTuple,
    held: Vec<Mbuf>,
    client_stream: Vec<u8>,
    server_stream: Vec<u8>,
    matched: bool,
    truncated: bool,
}

impl ConnBytesTracker {
    fn append(&mut self, dir: Dir, data: &[u8]) {
        let buf = match dir {
            Dir::OrigToResp => &mut self.client_stream,
            Dir::RespToOrig => &mut self.server_stream,
        };
        let room = STREAM_CAPTURE_LIMIT.saturating_sub(buf.len());
        if data.len() > room {
            self.truncated = true;
        }
        buf.extend_from_slice(&data[..data.len().min(room)]);
    }
}

impl Tracked for ConnBytesTracker {
    type Out = ConnBytes;

    fn new(tuple: &FiveTuple, _ts: u64) -> Self {
        ConnBytesTracker {
            tuple: *tuple,
            held: Vec::new(),
            client_stream: Vec::new(),
            server_stream: Vec::new(),
            matched: false,
            truncated: false,
        }
    }

    fn pre_match(&mut self, mbuf: &Mbuf, _pkt: &ParsedPacket) {
        // Hold by reference only; copy nothing until the filter matches.
        if self.held.len() < PRE_MATCH_BUFFER_CAP {
            self.held.push(mbuf.clone());
        } else {
            self.truncated = true;
        }
    }

    fn on_stream(&mut self, dir: Dir, data: &[u8]) {
        if self.matched {
            self.append(dir, data);
        }
    }

    fn on_match(
        &mut self,
        _service: Option<&str>,
        _session: Option<&Session>,
        _flow: &TcpFlow,
        _out: &mut TypedEmitter<'_, ConnBytes>,
    ) {
        self.matched = true;
        // Reconstruct the held packets in sequence order, per direction.
        let held = std::mem::take(&mut self.held);
        let mut segments: Vec<(Dir, u32, Mbuf)> = Vec::with_capacity(held.len());
        for mbuf in held {
            let Ok(pkt) = ParsedPacket::parse(mbuf.data()) else {
                continue;
            };
            let Some(dir) = self.tuple.dir_of(&pkt) else {
                continue;
            };
            let Some(seq) = pkt.tcp_seq() else {
                // UDP: arrival order is stream order.
                let payload = pkt.payload(mbuf.data()).to_vec();
                self.append(dir, &payload);
                continue;
            };
            if pkt.payload_len() > 0 {
                segments.push((dir, seq, mbuf));
            }
        }
        segments.sort_by_key(|(dir, seq, _)| (matches!(dir, Dir::RespToOrig), *seq));
        let mut last_end: [Option<u32>; 2] = [None, None];
        for (dir, seq, mbuf) in segments {
            let idx = matches!(dir, Dir::RespToOrig) as usize;
            // Skip exact duplicates (retransmissions).
            if let Some(end) = last_end[idx] {
                if (seq.wrapping_sub(end) as i32) < 0 {
                    continue;
                }
            }
            let pkt = ParsedPacket::parse(mbuf.data()).expect("parsed above");
            let payload = pkt.payload(mbuf.data()).to_vec();
            last_end[idx] = Some(seq.wrapping_add(payload.len() as u32));
            self.append(dir, &payload);
        }
    }

    fn post_match(
        &mut self,
        _mbuf: &Mbuf,
        _pkt: &ParsedPacket,
        _out: &mut TypedEmitter<'_, ConnBytes>,
    ) {
    }

    fn on_terminate(&mut self, _flow: &TcpFlow, out: &mut TypedEmitter<'_, ConnBytes>) {
        out.push(ConnBytes {
            tuple: self.tuple,
            client_stream: std::mem::take(&mut self.client_stream),
            server_stream: std::mem::take(&mut self.server_stream),
            truncated: self.truncated,
        });
    }

    fn needs_stream() -> bool {
        true
    }
}
