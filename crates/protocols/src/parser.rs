//! The `ConnParsable` analogue: traits and types through which the
//! framework drives application-layer parsing.

use retina_filter::{FieldValue, SessionData};

use crate::dns::DnsMessage;
use crate::http::HttpTransaction;
use crate::ssh::SshHandshake;
use crate::tls::TlsHandshake;

/// Direction of a byte-stream segment relative to the connection
/// originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client (originator) to server.
    ToServer,
    /// Server (responder) to client.
    ToClient,
}

/// Result of probing a byte-stream prefix for a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The prefix is definitely this protocol.
    Certain,
    /// Not enough data to decide yet.
    Unsure,
    /// Definitely not this protocol.
    NotForUs,
}

/// Result of feeding a segment to a parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseResult {
    /// Keep feeding data.
    Continue,
    /// One or more sessions completed and were appended to the caller's
    /// buffer. Further data may start another session (e.g. HTTP
    /// pipelining).
    Done,
    /// The stream is not parseable as this protocol after all. A parser
    /// that completed a session in the same call returns `Done` instead,
    /// and `Error` on its next call.
    Error,
}

/// A session produced by a user-defined protocol module (§3.3): exposes
/// a protocol name and named fields like the built-ins, plus manual
/// cloning (trait objects cannot derive `Clone`).
pub trait CustomSession: Send + std::fmt::Debug {
    /// Protocol name, matching the filter-language identifier.
    fn protocol(&self) -> &str;

    /// Field accessor (same contract as [`SessionData::field`]).
    fn field(&self, name: &str) -> Option<FieldValue<'_>>;

    /// Clones into a new box.
    fn clone_box(&self) -> Box<dyn CustomSession>;
}

/// A parsed application-layer session: one of the built-in protocols, or
/// a [`CustomSession`] from an out-of-tree protocol module (§3.3).
///
/// `Session` implements [`SessionData`], so the session filter can match
/// any variant's fields without knowing the concrete protocol.
#[derive(Debug)]
pub enum Session {
    /// A TLS handshake transcript.
    Tls(TlsHandshake),
    /// One HTTP request/response transaction.
    Http(HttpTransaction),
    /// One DNS query/response exchange.
    Dns(DnsMessage),
    /// An SSH banner exchange.
    Ssh(SshHandshake),
    /// A session from a user-registered protocol module.
    Custom(Box<dyn CustomSession>),
}

impl Clone for Session {
    fn clone(&self) -> Self {
        match self {
            Session::Tls(t) => Session::Tls(t.clone()),
            Session::Http(h) => Session::Http(h.clone()),
            Session::Dns(d) => Session::Dns(d.clone()),
            Session::Ssh(s) => Session::Ssh(s.clone()),
            Session::Custom(c) => Session::Custom(c.clone_box()),
        }
    }
}

impl PartialEq for Session {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Session::Tls(a), Session::Tls(b)) => a == b,
            (Session::Http(a), Session::Http(b)) => a == b,
            (Session::Dns(a), Session::Dns(b)) => a == b,
            (Session::Ssh(a), Session::Ssh(b)) => a == b,
            // Custom sessions are compared by identity of protocol only;
            // field-wise equality is not part of the trait contract.
            (Session::Custom(a), Session::Custom(b)) => a.protocol() == b.protocol(),
            _ => false,
        }
    }
}

impl SessionData for Session {
    fn protocol(&self) -> &str {
        match self {
            Session::Tls(_) => "tls",
            Session::Http(_) => "http",
            Session::Dns(_) => "dns",
            Session::Ssh(_) => "ssh",
            Session::Custom(c) => c.protocol(),
        }
    }

    fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match self {
            Session::Tls(t) => t.field(name),
            Session::Http(h) => h.field(name),
            Session::Dns(d) => d.field(name),
            Session::Ssh(s) => s.field(name),
            Session::Custom(c) => c.field(name),
        }
    }
}

/// What the framework should do with a connection after one of this
/// protocol's sessions has been handled — the paper's
/// `session_match_state` / `session_nomatch_state` (Figure 10), which
/// drive the Figure 4 state transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The protocol produces no further sessions of interest; the
    /// connection's app-layer state can be torn down (TLS after the
    /// handshake, SSH after the banner exchange).
    Remove,
    /// More sessions may follow on the same connection (HTTP keep-alive
    /// transactions, repeated DNS exchanges).
    KeepParsing,
}

/// A connection-level protocol parser (the paper's `ConnParsable`).
///
/// The framework probes a connection's first payload bytes with every
/// registered parser; once one returns [`ProbeResult::Certain`] the
/// connection is parsed by that module until its sessions complete
/// (Figure 4's Probe → Parse transition).
pub trait ConnParser: Send {
    /// Protocol name, matching the filter-language identifier.
    fn name(&self) -> &'static str;

    /// Probes a stream prefix (first data of either direction).
    fn probe(&self, data: &[u8], dir: Direction) -> ProbeResult;

    /// Feeds one in-order segment, appending each session it completes
    /// to `sessions`: the caller's buffer, one per core, which the parser
    /// never keeps. A parser holds no session storage of its own.
    fn parse(&mut self, data: &[u8], dir: Direction, sessions: &mut Vec<Session>) -> ParseResult;

    /// The connection ended: appends to `sessions` what that completes
    /// (DNS's unanswered query, SSH's half-open exchange).
    fn drain_sessions(&mut self, sessions: &mut Vec<Session>);

    /// Returns the parser to the state of a fresh one, whatever it was
    /// fed — garbage, a record cut mid-segment, a stream that ended in
    /// [`ParseResult::Error`] — so a per-core pool can hand it to the next
    /// connection of its protocol. Returns the heap bytes it keeps for
    /// that connection: buffer capacity, each buffer through
    /// [`reuse_buffer`].
    fn reset(&mut self) -> usize;

    /// Takes back `session`, one of its own that no subscriber took (the
    /// session filter rejected it), so that the buffers it holds carry
    /// the parser's next sessions; they stay across [`reset`] under the
    /// same rule as its other buffers. Returns the heap bytes it keeps of
    /// `session`. The default keeps nothing: the session is dropped.
    ///
    /// [`reset`]: ConnParser::reset
    fn recycle(&mut self, _session: Session) -> usize {
        0
    }

    /// Connection disposition after a session *matched* the filter.
    fn session_match_state(&self) -> SessionState {
        SessionState::KeepParsing
    }

    /// Connection disposition after a session *failed* the filter.
    fn session_nomatch_state(&self) -> SessionState {
        SessionState::KeepParsing
    }
}

/// What a reset parser keeps of one buffer's allocation for its next
/// connection: a buffer up to this size is emptied and kept, a larger one
/// freed. The built-in parsers hold at most two carries — one per
/// direction — and HTTP its queue of pending requests besides, each kept
/// by this rule, so a pooled one keeps at most 6 KiB. A pooled TLS parser
/// keeps, besides its carries, the SNI, ALPN and cipher-list buffers of a
/// handshake it was handed back ([`ConnParser::recycle`]), for the next
/// hellos to write into; it drops them first, so that with its carries it
/// keeps at most `2 * RESET_BUFFER_KEEP`.
pub const RESET_BUFFER_KEEP: usize = 2 * 1024;

/// Empties `buf` for a reset parser's next connection, keeping its
/// allocation only if it is at most [`RESET_BUFFER_KEEP`] bytes; returns
/// the bytes kept.
pub fn reuse_buffer(buf: &mut Vec<u8>) -> usize {
    if buf.capacity() > RESET_BUFFER_KEEP {
        *buf = Vec::new();
    } else {
        buf.clear();
    }
    buf.capacity()
}

/// A parser driven on its own — by a test, or the benchmark crate's
/// protocol pass — with the session buffer a pipeline's core would lend
/// it: `parse` appends there, `drain_sessions` takes it. One buffer per
/// driver, as in a pipeline; the parser itself holds none.
pub struct StandaloneParser {
    parser: Box<dyn ConnParser>,
    sessions: Vec<Session>,
}

impl StandaloneParser {
    /// Protocol name ([`ConnParser::name`]).
    pub fn name(&self) -> &'static str {
        self.parser.name()
    }

    /// Probes a stream prefix ([`ConnParser::probe`]).
    pub fn probe(&self, data: &[u8], dir: Direction) -> ProbeResult {
        self.parser.probe(data, dir)
    }

    /// Feeds one in-order segment ([`ConnParser::parse`]); the sessions it
    /// completes wait in the buffer.
    pub fn parse(&mut self, data: &[u8], dir: Direction) -> ParseResult {
        self.parser.parse(data, dir, &mut self.sessions)
    }

    /// Takes the buffered sessions, and what ending the connection
    /// completes ([`ConnParser::drain_sessions`]).
    pub fn drain_sessions(&mut self) -> Vec<Session> {
        self.parser.drain_sessions(&mut self.sessions);
        std::mem::take(&mut self.sessions)
    }
}

/// Constructor for a boxed [`ConnParser`]; plain `fn` so registries
/// stay `Clone` + `'static` without allocation.
pub type ParserFactory = fn() -> Box<dyn ConnParser>;

/// Factory registry: maps protocol names to parser constructors.
///
/// The runtime populates this from the union of the filter's
/// connection-layer protocols and the subscription's required parsers
/// (the "Parser Registry" of Figure 2).
#[derive(Clone)]
pub struct ParserRegistry {
    factories: Vec<(&'static str, ParserFactory)>,
}

impl std::fmt::Debug for ParserRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParserRegistry")
            .field("protocols", &self.protocols())
            .finish()
    }
}

impl Default for ParserRegistry {
    /// Registry with all built-in protocols.
    fn default() -> Self {
        let mut r = ParserRegistry {
            factories: Vec::new(),
        };
        r.register("tls", || Box::new(crate::tls::TlsParser::new()));
        r.register("http", || Box::new(crate::http::HttpParser::new()));
        r.register("dns", || Box::new(crate::dns::DnsParser::new()));
        r.register("ssh", || Box::new(crate::ssh::SshParser::new()));
        r.register("quic", || Box::new(crate::quic::QuicParser::new()));
        r
    }
}

impl ParserRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        ParserRegistry {
            factories: Vec::new(),
        }
    }

    /// Registers a parser factory under a protocol name.
    pub fn register(&mut self, name: &'static str, factory: ParserFactory) {
        if !self.factories.iter().any(|(n, _)| *n == name) {
            self.factories.push((name, factory));
        }
    }

    /// Instantiates a parser by protocol name, for a pipeline that lends
    /// it the core's session buffer.
    pub fn instantiate(&self, name: &str) -> Option<Box<dyn ConnParser>> {
        self.factories
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f())
    }

    /// Instantiates a parser by protocol name, with a session buffer of
    /// its own, to drive outside a pipeline.
    pub fn new_parser(&self, name: &str) -> Option<StandaloneParser> {
        self.instantiate(name).map(|parser| StandaloneParser {
            parser,
            sessions: Vec::new(),
        })
    }

    /// Standalone parsers for a set of protocol names, skipping unknown
    /// names.
    pub fn new_parsers(&self, names: &[String]) -> Vec<StandaloneParser> {
        names.iter().filter_map(|n| self.new_parser(n)).collect()
    }

    /// Registered protocol names.
    pub fn protocols(&self) -> Vec<&'static str> {
        self.factories.iter().map(|(n, _)| *n).collect()
    }
}

/// A test's drain: everything in `sessions`, taken after `parser`'s
/// connection end appends to it.
#[cfg(test)]
pub(crate) fn drained(parser: &mut dyn ConnParser, sessions: &mut Vec<Session>) -> Vec<Session> {
    parser.drain_sessions(sessions);
    std::mem::take(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_defaults() {
        let r = ParserRegistry::default();
        assert_eq!(r.protocols(), vec!["tls", "http", "dns", "ssh", "quic"]);
        assert!(r.new_parser("tls").is_some());
        assert!(r.new_parser("quic").is_some());
        assert!(r.new_parser("gopher").is_none());
        let parsers = r.new_parsers(&["tls".into(), "bogus".into(), "http".into()]);
        assert_eq!(parsers.len(), 2);
    }

    #[test]
    fn duplicate_registration_ignored() {
        let mut r = ParserRegistry::default();
        let before = r.protocols().len();
        r.register("tls", || Box::new(crate::tls::TlsParser::new()));
        assert_eq!(r.protocols().len(), before);
    }

    #[test]
    fn session_protocol_names() {
        let s = Session::Ssh(SshHandshake::default());
        assert_eq!(s.protocol(), "ssh");
    }

    #[test]
    fn reuse_buffer_keeps_small_allocations_only() {
        let mut small = Vec::with_capacity(100);
        small.extend_from_slice(b"abc");
        assert_eq!(reuse_buffer(&mut small), 100);
        assert!(small.is_empty());
        let mut large = vec![0u8; RESET_BUFFER_KEEP + 1];
        assert_eq!(reuse_buffer(&mut large), 0);
        assert_eq!(large.capacity(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tls::build::{
        client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
    };
    use crate::{dns, http, quic, ssh, ssh::SshHandshake};
    use retina_support::proptest::prelude::*;
    use Direction::{ToClient, ToServer};

    /// `record`'s body framed as two records of its content type, cut
    /// `at` bytes into the body: what a message cut at a record boundary
    /// looks like.
    fn split_record(record: &[u8], at: usize) -> Vec<u8> {
        let (head, body) = record.split_at(5);
        let mut out = Vec::new();
        for part in [&body[..at], &body[at..]] {
            out.extend_from_slice(&head[..3]);
            out.extend_from_slice(&u16::try_from(part.len()).unwrap().to_be_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    /// A real conversation of the registry's protocol `proto`, from the
    /// traffic generator's builders, segment by segment: a ClientHello
    /// cut across two records; pipelined requests, and a counted and a
    /// chunked body in one segment.
    fn conversation(proto: &str) -> Vec<(Direction, Vec<u8>)> {
        match proto {
            "tls" => vec![
                (
                    ToServer,
                    split_record(
                        &client_hello_record(&ClientHelloSpec {
                            sni: Some("video.example.net".into()),
                            ciphers: vec![0x1301, 0xc02f],
                            random: [0x42; 32],
                            version: 0x0303,
                            alpn: Some("h2".into()),
                        }),
                        40,
                    ),
                ),
                (
                    ToClient,
                    server_hello_record(&ServerHelloSpec {
                        cipher: 0x1301,
                        random: [0x99; 32],
                        version: 0x0303,
                        supported_version: Some(0x0304),
                        alpn: Some("h2".into()),
                    }),
                ),
            ],
            "http" => vec![
                (
                    ToServer,
                    [
                        http::build_request("GET", "/a", "example.com", "t/1"),
                        http::build_request("GET", "/c", "example.com", "t/1"),
                    ]
                    .concat(),
                ),
                (
                    ToClient,
                    [
                        http::build_response(200, 32),
                        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                            .to_vec(),
                    ]
                    .concat(),
                ),
                (
                    ToServer,
                    http::build_request("HEAD", "/b", "example.com", "t/1"),
                ),
                (ToClient, http::build_response(304, 0)),
            ],
            "dns" => vec![
                (ToServer, dns::build_query(7, "www.example.com", 1)),
                (ToClient, dns::build_response(7, "www.example.com", 1, 2, 0)),
            ],
            "ssh" => vec![
                (ToServer, ssh::build_banner("OpenSSH_9.6")),
                (ToClient, ssh::build_banner("OpenSSH_8.9")),
                (
                    ToServer,
                    ssh::build_kexinit("curve25519-sha256", "ssh-ed25519"),
                ),
            ],
            _ => vec![(
                ToServer,
                quic::build_long_header(1, &[0xaa; 8], &[0x11; 4], 200),
            )],
        }
    }

    /// What `parser` makes of `conv`: each segment's probe and parse
    /// results, and the sessions drained at the end (by their `Debug`
    /// form, which — unlike `PartialEq` — compares custom sessions field
    /// by field).
    fn outcome(
        parser: &mut dyn ConnParser,
        conv: &[(Direction, Vec<u8>)],
    ) -> (Vec<ProbeResult>, Vec<ParseResult>, String) {
        let mut sessions = Vec::new();
        let probes = conv.iter().map(|(d, seg)| parser.probe(seg, *d)).collect();
        let parses = (conv.iter())
            .map(|(d, seg)| parser.parse(seg, *d, &mut sessions))
            .collect();
        (
            probes,
            parses,
            format!("{:?}", drained(parser, &mut sessions)),
        )
    }

    /// The protocols whose parsers read a byte stream, where a record can
    /// be cut anywhere. DNS and QUIC parse one message per datagram.
    const STREAMS: [&str; 3] = ["tls", "http", "ssh"];

    /// What a fresh `proto` parser makes of `pieces`, fed as the tracker
    /// feeds them: its last parse result, and the sessions appended on
    /// the way and at the end.
    fn fed(proto: &str, pieces: Vec<(Direction, &[u8])>) -> (ParseResult, String) {
        let mut parser = ParserRegistry::default()
            .new_parser(proto)
            .expect("registered");
        let mut last = ParseResult::Continue;
        for (dir, piece) in pieces {
            last = parser.parse(piece, dir);
        }
        (last, format!("{:?}", parser.drain_sessions()))
    }

    /// `conv`, each segment cut into pieces of the lengths `sizes` cycles
    /// through (`usize::MAX`: whole segments).
    fn cut<'a>(conv: &'a [(Direction, Vec<u8>)], sizes: &[usize]) -> Vec<(Direction, &'a [u8])> {
        let mut sizes = sizes.iter().copied().cycle();
        let mut pieces = Vec::new();
        for (dir, seg) in conv {
            let mut rest = &seg[..];
            while !rest.is_empty() {
                let (piece, tail) = rest.split_at(sizes.next().unwrap().min(rest.len()));
                pieces.push((*dir, piece));
                rest = tail;
            }
        }
        pieces
    }

    /// Every built-in parser appends what it completes to the caller's
    /// buffer, after what the buffer already held, and keeps nothing of
    /// it: once reset, even mid-session, it has no session to drain.
    #[test]
    fn sessions_land_in_the_callers_buffer() {
        let registry = ParserRegistry::default();
        for proto in registry.protocols() {
            let conv = conversation(proto);
            let mut parser = registry.instantiate(proto).expect("registered");
            let earlier = Session::Ssh(SshHandshake::default());
            let mut sessions = vec![earlier.clone()];
            for (dir, seg) in &conv {
                let _ = parser.parse(seg, *dir, &mut sessions);
            }
            assert!(
                sessions.len() > 1,
                "{proto}: the conversation completes a session"
            );
            assert_eq!(sessions[0], earlier, "{proto}: appended, not replaced");
            assert_eq!(
                format!("{:?}", &sessions[1..]),
                format!(
                    "{:?}",
                    registry
                        .new_parser(proto)
                        .map(|mut p| {
                            for (dir, seg) in &conv {
                                let _ = p.parse(seg, *dir);
                            }
                            p.drain_sessions()
                        })
                        .expect("registered")
                ),
                "{proto}: everything it completed went to the buffer"
            );
            // Cut mid-session: the first segment only, then reset.
            let (dir, seg) = &conv[0];
            let _ = parser.reset();
            let _ = parser.parse(&seg[..seg.len() / 2], *dir, &mut sessions);
            let _ = parser.reset();
            let mut left = Vec::new();
            parser.drain_sessions(&mut left);
            assert!(left.is_empty(), "{proto}: a reset parser drains nothing");
        }
    }

    /// HTTP: a response that completes a transaction, then a malformed
    /// head in the same segment. The transaction is handed over (`Done`),
    /// and the parser fails on its next call.
    #[test]
    fn a_malformed_head_after_a_transaction_fails_the_next_call() {
        let mut parser = http::HttpParser::new();
        let mut sessions = Vec::new();
        let request = http::build_request("GET", "/a", "example.com", "t/1");
        assert_eq!(
            parser.parse(&request, ToServer, &mut sessions),
            ParseResult::Continue
        );
        let response = [&http::build_response(200, 0)[..], b"NOT-HTTP\r\n\r\n"].concat();
        assert_eq!(
            parser.parse(&response, ToClient, &mut sessions),
            ParseResult::Done
        );
        assert_eq!(sessions.len(), 1);
        assert_eq!(
            parser.parse(&request, ToServer, &mut sessions),
            ParseResult::Error
        );
        assert_eq!(sessions.len(), 1);
    }

    #[test]
    fn one_byte_segments_parse_as_whole_ones() {
        for proto in STREAMS {
            let conv = conversation(proto);
            let whole = fed(proto, cut(&conv, &[usize::MAX]));
            assert_eq!(fed(proto, cut(&conv, &[1])), whole, "{proto}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pool's contract: whatever a parser was fed — random bytes,
        /// a record cut mid-segment (of its own protocol or another), a
        /// stream that ended in `Error` — and whether or not a session of
        /// its protocol that nobody took was handed back to it, once
        /// `reset` it probes, parses and drains a real conversation
        /// exactly as a fresh parser does, and keeps no more than its
        /// buffers' allowance.
        #[test]
        fn a_reset_parser_is_a_fresh_one(
            proto in 0usize..5,
            dirt in 0u8..3,
            bytes in collection::vec(any::<u8>(), 0..600),
            chunk in 1usize..64,
            other in 0usize..5,
            cut in 0usize..400,
            recycled in any::<bool>(),
        ) {
            let registry = ParserRegistry::default();
            let names = registry.protocols();
            let name = names[proto];
            let mut used = registry.instantiate(name).expect("registered");
            let mut dropped = Vec::new();
            match dirt {
                0 => {
                    for (i, piece) in bytes.chunks(chunk).enumerate() {
                        let dir = if i % 2 == 0 { ToServer } else { ToClient };
                        let _ = used.parse(piece, dir, &mut dropped);
                    }
                }
                1 => {
                    for (dir, seg) in conversation(names[other]) {
                        let seg = &seg[..cut.min(seg.len())];
                        let _ = used.parse(seg, dir, &mut dropped);
                    }
                }
                _ => {
                    let garbage = b"\xff\xfe not this protocol\r\n\r\n";
                    for _ in 0..4 {
                        let r = used.parse(garbage, ToServer, &mut dropped);
                        if r == ParseResult::Error {
                            break;
                        }
                    }
                }
            }
            let conv = conversation(name);
            if recycled {
                let mut other = registry.new_parser(name).expect("registered");
                for (dir, seg) in &conv {
                    let _ = other.parse(seg, *dir);
                }
                let session = other.drain_sessions().into_iter().next();
                let _ = used.recycle(session.expect("the conversation yields sessions"));
            }
            let kept = used.reset();
            prop_assert!(kept <= 2 * RESET_BUFFER_KEEP, "{name} keeps {kept} bytes");
            let mut fresh = registry.instantiate(name).expect("registered");
            let expected = outcome(&mut *fresh, &conv);
            prop_assert!(expected.2 != "[]", "{name}: the conversation yields sessions");
            prop_assert_eq!(outcome(&mut *used, &conv), expected);
        }

        /// A stream parser reads records in place and carries only what a
        /// segment cuts: wherever the cuts fall — inside a record header,
        /// a handshake message, a head, a body or the last-chunk marker —
        /// it drains the same sessions and ends on the same result as when
        /// fed whole segments.
        #[test]
        fn segmentation_does_not_change_what_is_parsed(
            proto in 0usize..STREAMS.len(),
            sizes in collection::vec(1usize..48, 1..6),
        ) {
            let proto = STREAMS[proto];
            let conv = conversation(proto);
            let whole = fed(proto, cut(&conv, &[usize::MAX]));
            prop_assert!(whole.1 != "[]", "{proto}: the conversation yields sessions");
            prop_assert_eq!(fed(proto, cut(&conv, &sizes)), whole);
        }
    }
}
