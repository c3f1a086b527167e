//! TLS handshake parsing (TLS 1.0–1.3).
//!
//! The parser consumes in-order byte-stream segments, reads TLS records
//! and handshake messages where they lie in each segment — carrying only
//! a message cut at a record boundary, or the handshake record cut at a
//! segment boundary — and extracts the handshake fields
//! Retina exposes for filtering and analysis: SNI, ALPN, offered and
//! selected ciphersuites, protocol versions, and the client/server
//! randoms (§7.1 measures client-random collisions at scale).
//!
//! Parsing stops at the end of the handshake — by design, Retina has no
//! reason to process encrypted application data (§5.2).

pub mod build;
mod ciphers;

pub use ciphers::cipher_name;

use retina_filter::FieldValue;

use crate::parser::{
    reuse_buffer, ConnParser, Direction, ParseResult, ProbeResult, Session, RESET_BUFFER_KEEP,
};

/// Maximum handshake bytes carried per direction while waiting for a
/// complete record or message; adversarial streams beyond this are
/// abandoned.
const MAX_BUFFER: usize = 64 * 1024;

/// TLS record content types.
const CONTENT_HANDSHAKE: u8 = 22;
const CONTENT_CCS: u8 = 20;
const CONTENT_ALERT: u8 = 21;
const CONTENT_APPDATA: u8 = 23;

/// Handshake message types.
const HS_CLIENT_HELLO: u8 = 1;
const HS_SERVER_HELLO: u8 = 2;

/// A parsed TLS handshake transcript.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TlsHandshake {
    /// Server name from the SNI extension, if present.
    pub sni: Option<String>,
    /// The 32-byte client random.
    pub client_random: [u8; 32],
    /// The 32-byte server random, when a ServerHello was seen.
    pub server_random: Option<[u8; 32]>,
    /// Version offered in the ClientHello legacy field.
    pub client_version: u16,
    /// Negotiated version (from the ServerHello, honoring
    /// `supported_versions` for TLS 1.3).
    pub version: u16,
    /// Ciphersuites offered by the client.
    pub offered_ciphers: Vec<u16>,
    /// Ciphersuite selected by the server (0 if no ServerHello).
    pub cipher: u16,
    /// ALPN protocol selected/offered, if present.
    pub alpn: Option<String>,
}

impl TlsHandshake {
    /// The SNI, or an empty string (convenience mirroring the paper's
    /// `hs.sni()` usage in Figure 1).
    pub fn sni(&self) -> &str {
        self.sni.as_deref().unwrap_or("")
    }

    /// Human-readable name of the selected ciphersuite.
    pub fn cipher(&self) -> String {
        cipher_name(self.cipher)
    }

    /// Field accessor backing [`retina_filter::SessionData`].
    pub fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "sni" => self.sni.as_deref().map(FieldValue::Str),
            "version" => Some(FieldValue::Int(u64::from(self.version))),
            "cipher" => Some(FieldValue::Str(ciphers::cipher_name_static(self.cipher))),
            "alpn" => self.alpn.as_deref().map(FieldValue::Str),
            _ => None,
        }
    }
}

/// Where a record's body lies once the record is complete.
enum Body<'a> {
    /// Wholly inside the segment being parsed.
    InPlace(&'a [u8]),
    /// A handshake body: appended to its direction's carry as it arrived.
    /// Any other body was skipped.
    Carried,
}

/// One direction's record layer between segments. Records and handshake
/// messages are read where they lie in the segment; only bytes a later
/// segment completes are kept here.
#[derive(Debug, Default)]
struct Side {
    /// Handshake bytes not yet handled: a message cut at a record
    /// boundary, then the body so far of a handshake record cut at a
    /// segment boundary.
    carry: Vec<u8>,
    /// A record header cut inside its five bytes.
    header: [u8; 5],
    header_len: usize,
    /// The record cut at a segment boundary: its content type and the
    /// body bytes still to come.
    open: Option<(u8, usize)>,
}

impl Side {
    /// Takes the next complete record off the front of `rest`, finishing
    /// the one this side holds open first. `Ok(None)`: `rest` is spent.
    fn next_record<'a>(&mut self, rest: &mut &'a [u8]) -> Result<Option<(u8, Body<'a>)>, ()> {
        if let Some((content_type, left)) = self.open {
            let (part, tail) = rest.split_at(left.min(rest.len()));
            *rest = tail;
            if content_type == CONTENT_HANDSHAKE {
                hold(&mut self.carry, part)?;
            }
            if part.len() < left {
                self.open = Some((content_type, left - part.len()));
                return Ok(None);
            }
            self.open = None;
            return Ok(Some((content_type, Body::Carried)));
        }
        let header = if self.header_len == 0 && rest.len() >= 5 {
            let (header, tail) = rest.split_at(5);
            *rest = tail;
            [header[0], header[1], header[2], header[3], header[4]]
        } else {
            let (part, tail) = rest.split_at((5 - self.header_len).min(rest.len()));
            *rest = tail;
            self.header[self.header_len..self.header_len + part.len()].copy_from_slice(part);
            self.header_len += part.len();
            if self.header_len < 5 {
                return Ok(None);
            }
            self.header_len = 0;
            self.header
        };
        let (content_type, len) = (
            header[0],
            usize::from(u16::from_be_bytes([header[3], header[4]])),
        );
        if rest.len() >= len {
            let (body, tail) = rest.split_at(len);
            *rest = tail;
            return Ok(Some((content_type, Body::InPlace(body))));
        }
        self.open = Some((content_type, len));
        self.next_record(rest)
    }
}

/// Appends `bytes` to a carry, failing past [`MAX_BUFFER`].
fn hold(carry: &mut Vec<u8>, bytes: &[u8]) -> Result<(), ()> {
    if carry.len() + bytes.len() > MAX_BUFFER {
        return Err(());
    }
    carry.extend_from_slice(bytes);
    Ok(())
}

/// `handshake`'s SNI, ALPN and cipher-list buffers, emptied, in a
/// handshake that holds nothing else: what the next hellos write into.
fn emptied(handshake: TlsHandshake) -> TlsHandshake {
    let empty = |mut text: String| {
        text.clear();
        text
    };
    let mut offered_ciphers = handshake.offered_ciphers;
    offered_ciphers.clear();
    TlsHandshake {
        sni: handshake.sni.map(empty),
        alpn: handshake.alpn.map(empty),
        offered_ciphers,
        ..TlsHandshake::default()
    }
}

/// The heap bytes of `handshake`'s SNI, ALPN and cipher-list buffers.
fn buffer_bytes(handshake: &TlsHandshake) -> usize {
    let text = |field: &Option<String>| field.as_ref().map_or(0, String::capacity);
    text(&handshake.sni)
        + text(&handshake.alpn)
        + handshake.offered_ciphers.capacity() * std::mem::size_of::<u16>()
}

/// What the hellos have told so far.
#[derive(Debug, Default)]
struct Hellos {
    /// The handshake being built. Until either hello is read into it, it
    /// holds nothing but what a recycled handshake left ([`emptied`]).
    handshake: TlsHandshake,
    seen_client_hello: bool,
    seen_server_hello: bool,
    failed: bool,
}

impl Hellos {
    /// Handles every complete handshake message at the front of `bytes`;
    /// returns the bytes they span (a cut message after them is left).
    fn walk(&mut self, bytes: &[u8]) -> usize {
        let mut used = 0;
        while let [msg_type, a, b, c, rest @ ..] = &bytes[used..] {
            let msg_len = usize::from(*a) << 16 | usize::from(*b) << 8 | usize::from(*c);
            let Some(body) = rest.get(..msg_len) else {
                break;
            };
            self.handle_message(*msg_type, body);
            used += 4 + msg_len;
        }
        used
    }

    fn handle_message(&mut self, msg_type: u8, body: &[u8]) {
        // The first hello takes out the strings a recycled handshake left:
        // a ClientHello writes its own into them where they fit.
        let first = !(self.seen_client_hello || self.seen_server_hello);
        let spares = match msg_type {
            HS_CLIENT_HELLO | HS_SERVER_HELLO if first => {
                [self.handshake.sni.take(), self.handshake.alpn.take()]
            }
            _ => [None, None],
        };
        match msg_type {
            HS_CLIENT_HELLO => {
                if parse_client_hello(body, &mut self.handshake, spares).is_ok() {
                    self.seen_client_hello = true;
                } else {
                    self.failed = true;
                }
            }
            HS_SERVER_HELLO => {
                if parse_server_hello(body, &mut self.handshake).is_ok() {
                    self.seen_server_hello = true;
                } else {
                    self.failed = true;
                }
            }
            // Certificates, key exchange, finished, etc.: their presence
            // is noted implicitly; we do not retain their bodies.
            _ => {}
        }
    }
}

/// Streaming TLS handshake parser.
#[derive(Debug, Default)]
pub struct TlsParser {
    /// Record layers, to-server then to-client.
    sides: [Side; 2],
    hellos: Hellos,
    done: bool,
}

impl TlsParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks the records of one segment, each where it lies, until the
    /// handshake is done — it goes to `sessions` — or the segment spent.
    fn process(
        &mut self,
        dir: Direction,
        mut rest: &[u8],
        sessions: &mut Vec<Session>,
    ) -> ParseResult {
        let side = &mut self.sides[dir as usize];
        loop {
            let (content_type, body) = match side.next_record(&mut rest) {
                Err(()) => {
                    self.hellos.failed = true;
                    return ParseResult::Error;
                }
                Ok(None) if self.hellos.failed => return ParseResult::Error,
                Ok(None) => return ParseResult::Continue,
                Ok(Some(record)) => record,
            };
            let hellos = &mut self.hellos;
            match content_type {
                CONTENT_HANDSHAKE => {
                    // Messages can span records: the one cut at a record's
                    // end waits in the carry for the rest. With nothing
                    // carried, the record's messages are read in place.
                    let fresh = match body {
                        Body::InPlace(body) if side.carry.is_empty() => &body[hellos.walk(body)..],
                        Body::InPlace(body) => body,
                        Body::Carried => &[],
                    };
                    if hold(&mut side.carry, fresh).is_err() {
                        hellos.failed = true;
                        return ParseResult::Error;
                    }
                    let used = hellos.walk(&side.carry);
                    side.carry.drain(..used);
                }
                // Encrypted phase begins, or an alert: the transcript is
                // complete with whatever was collected once a ClientHello
                // was seen.
                CONTENT_CCS | CONTENT_APPDATA | CONTENT_ALERT if hellos.seen_client_hello => {
                    self.done = true;
                }
                CONTENT_CCS | CONTENT_APPDATA => {}
                _ => {
                    hellos.failed = true;
                    return ParseResult::Error;
                }
            }
            if hellos.seen_client_hello && hellos.seen_server_hello {
                self.done = true;
            }
            if self.done {
                // The handshake moves into its session: nothing reads it
                // after this.
                let handshake = std::mem::take(&mut hellos.handshake);
                sessions.push(Session::Tls(handshake));
                return ParseResult::Done;
            }
        }
    }
}

impl ConnParser for TlsParser {
    fn name(&self) -> &'static str {
        "tls"
    }

    fn probe(&self, data: &[u8], _dir: Direction) -> ProbeResult {
        if data.is_empty() {
            return ProbeResult::Unsure;
        }
        if data[0] != CONTENT_HANDSHAKE {
            return ProbeResult::NotForUs;
        }
        if data.len() < 3 {
            return ProbeResult::Unsure;
        }
        if data[1] != 3 || data[2] > 4 {
            return ProbeResult::NotForUs;
        }
        if data.len() < 6 {
            return ProbeResult::Unsure;
        }
        if matches!(data[5], HS_CLIENT_HELLO | HS_SERVER_HELLO) {
            ProbeResult::Certain
        } else {
            ProbeResult::NotForUs
        }
    }

    fn parse(&mut self, data: &[u8], dir: Direction, sessions: &mut Vec<Session>) -> ParseResult {
        if self.hellos.failed {
            return ParseResult::Error;
        }
        if self.done {
            return ParseResult::Done;
        }
        self.process(dir, data, sessions)
    }

    fn drain_sessions(&mut self, _sessions: &mut Vec<Session>) {}

    fn reset(&mut self) -> usize {
        let carried: usize = (self.sides.iter_mut())
            .map(|side| reuse_buffer(&mut side.carry))
            .sum();
        // Once the handshake is delivered, what the parser holds of one
        // is what was recycled into it: kept, unless with the carries it
        // passes two buffers' allowance. A handshake cut short is dropped.
        let mut spares = TlsHandshake::default();
        if self.done {
            spares = emptied(std::mem::take(&mut self.hellos.handshake));
        }
        if carried + buffer_bytes(&spares) > 2 * RESET_BUFFER_KEEP {
            spares = TlsHandshake::default();
        }
        let spared = buffer_bytes(&spares);
        let sides = std::mem::take(&mut self.sides).map(|side| Side {
            carry: side.carry,
            ..Side::default()
        });
        *self = TlsParser {
            sides,
            hellos: Hellos {
                handshake: spares,
                ..Hellos::default()
            },
            ..TlsParser::default()
        };
        carried + spared
    }

    fn recycle(&mut self, session: Session) -> usize {
        // Until its handshake is delivered, the parser is still building
        // it: nothing it holds is spare.
        match session {
            Session::Tls(handshake) if self.done => {
                self.hellos.handshake = emptied(handshake);
                buffer_bytes(&self.hellos.handshake)
            }
            _ => 0,
        }
    }

    fn session_match_state(&self) -> crate::parser::SessionState {
        // The handshake is the only session; stop app-layer processing
        // and let the framework drop the encrypted remainder (§5.2).
        crate::parser::SessionState::Remove
    }

    fn session_nomatch_state(&self) -> crate::parser::SessionState {
        crate::parser::SessionState::Remove
    }
}

/// Reads a length-prefixed slice; returns (slice, rest).
fn take(data: &[u8], n: usize) -> Option<(&[u8], &[u8])> {
    (data.len() >= n).then(|| data.split_at(n))
}

/// An owned copy of `bytes` if they are UTF-8: written into the `spare`
/// string if they fit it, else into a new one of exactly their size.
fn utf8(bytes: &[u8], spare: Option<String>) -> Option<String> {
    let text = std::str::from_utf8(bytes).ok()?;
    match spare {
        Some(mut owned) if owned.capacity() >= text.len() => {
            owned.clear();
            owned.push_str(text);
            Some(owned)
        }
        _ => Some(text.to_owned()),
    }
}

/// Reads a ClientHello into `out`, its SNI and ALPN into the `[sni,
/// alpn]` spares where they fit.
fn parse_client_hello(
    body: &[u8],
    out: &mut TlsHandshake,
    [mut sni, mut alpn]: [Option<String>; 2],
) -> Result<(), ()> {
    let (ver, rest) = take(body, 2).ok_or(())?;
    out.client_version = u16::from_be_bytes([ver[0], ver[1]]);
    out.version = out.client_version; // refined by ServerHello
    let (random, rest) = take(rest, 32).ok_or(())?;
    out.client_random.copy_from_slice(random);
    // Session ID.
    let (sid_len, rest) = take(rest, 1).ok_or(())?;
    let (_sid, rest) = take(rest, usize::from(sid_len[0])).ok_or(())?;
    // Cipher suites.
    let (cs_len, rest) = take(rest, 2).ok_or(())?;
    let cs_len = usize::from(u16::from_be_bytes([cs_len[0], cs_len[1]]));
    let (suites, rest) = take(rest, cs_len).ok_or(())?;
    let offered = suites
        .chunks_exact(2)
        .map(|c| u16::from_be_bytes([c[0], c[1]]));
    if offered.len() > out.offered_ciphers.capacity() {
        out.offered_ciphers = offered.collect();
    } else {
        out.offered_ciphers.clear();
        out.offered_ciphers.extend(offered);
    }
    // Compression methods.
    let (comp_len, rest) = take(rest, 1).ok_or(())?;
    let (_comp, rest) = take(rest, usize::from(comp_len[0])).ok_or(())?;
    // Extensions (optional in SSLv3-style hellos).
    if rest.is_empty() {
        return Ok(());
    }
    let (ext_len, rest) = take(rest, 2).ok_or(())?;
    let ext_len = usize::from(u16::from_be_bytes([ext_len[0], ext_len[1]]));
    let (mut exts, _) = take(rest, ext_len).ok_or(())?;
    while exts.len() >= 4 {
        let ext_type = u16::from_be_bytes([exts[0], exts[1]]);
        let len = usize::from(u16::from_be_bytes([exts[2], exts[3]]));
        let Some((data, rest)) = take(&exts[4..], len) else {
            return Err(());
        };
        exts = rest;
        match ext_type {
            0
                // server_name: list_len u16, type u8, name_len u16, name.
                if data.len() >= 5 && data[2] == 0 => {
                    let name_len = usize::from(u16::from_be_bytes([data[3], data[4]]));
                    if let Some((name, _)) = take(&data[5..], name_len) {
                        out.sni = utf8(name, sni.take());
                    }
                }
            16
                // ALPN: list_len u16, then [len u8, proto]*. Record the
                // first offered protocol.
                if data.len() >= 3 => {
                    let plen = usize::from(data[2]);
                    if let Some((proto, _)) = take(&data[3..], plen) {
                        out.alpn = utf8(proto, alpn.take());
                    }
                }
            _ => {}
        }
    }
    Ok(())
}

fn parse_server_hello(body: &[u8], out: &mut TlsHandshake) -> Result<(), ()> {
    let (ver, rest) = take(body, 2).ok_or(())?;
    out.version = u16::from_be_bytes([ver[0], ver[1]]);
    let (random, rest) = take(rest, 32).ok_or(())?;
    let mut sr = [0u8; 32];
    sr.copy_from_slice(random);
    out.server_random = Some(sr);
    let (sid_len, rest) = take(rest, 1).ok_or(())?;
    let (_sid, rest) = take(rest, usize::from(sid_len[0])).ok_or(())?;
    let (cipher, rest) = take(rest, 2).ok_or(())?;
    out.cipher = u16::from_be_bytes([cipher[0], cipher[1]]);
    let (_comp, rest) = take(rest, 1).ok_or(())?;
    if rest.is_empty() {
        return Ok(());
    }
    let (ext_len, rest) = take(rest, 2).ok_or(())?;
    let ext_len = usize::from(u16::from_be_bytes([ext_len[0], ext_len[1]]));
    let (mut exts, _) = take(rest, ext_len).ok_or(())?;
    while exts.len() >= 4 {
        let ext_type = u16::from_be_bytes([exts[0], exts[1]]);
        let len = usize::from(u16::from_be_bytes([exts[2], exts[3]]));
        let Some((data, rest)) = take(&exts[4..], len) else {
            return Err(());
        };
        exts = rest;
        match ext_type {
            43
                // supported_versions (ServerHello form: one u16): the
                // genuine negotiated version for TLS 1.3.
                if data.len() == 2 => {
                    out.version = u16::from_be_bytes([data[0], data[1]]);
                }
            16
                if data.len() >= 3 => {
                    let plen = usize::from(data[2]);
                    if let Some((proto, _)) = take(&data[3..], plen) {
                        out.alpn = utf8(proto, None);
                    }
                }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::build::{
        client_hello_record, server_hello_record, ClientHelloSpec, ServerHelloSpec,
    };
    use super::*;
    use crate::parser::drained;

    fn spec() -> ClientHelloSpec {
        ClientHelloSpec {
            sni: Some("www.example.com".into()),
            ciphers: vec![0x1301, 0x1302, 0xc02f],
            random: [7u8; 32],
            version: 0x0303,
            alpn: Some("h2".into()),
        }
    }

    #[test]
    fn probe_client_hello() {
        let record = client_hello_record(&spec());
        let parser = TlsParser::new();
        assert_eq!(
            parser.probe(&record, Direction::ToServer),
            ProbeResult::Certain
        );
        assert_eq!(
            parser.probe(&record[..3], Direction::ToServer),
            ProbeResult::Unsure
        );
        assert_eq!(parser.probe(b"", Direction::ToServer), ProbeResult::Unsure);
        assert_eq!(
            parser.probe(b"GET / HTTP/1.1", Direction::ToServer),
            ProbeResult::NotForUs
        );
        assert_eq!(
            parser.probe(&[22, 9, 9, 0, 0, 1], Direction::ToServer),
            ProbeResult::NotForUs
        );
    }

    #[test]
    fn full_handshake_roundtrip() {
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        let ch = client_hello_record(&spec());
        assert_eq!(
            parser.parse(&ch, Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        let sh = server_hello_record(&ServerHelloSpec {
            cipher: 0x1301,
            random: [9u8; 32],
            version: 0x0303,
            supported_version: Some(0x0304),
            alpn: None,
        });
        assert_eq!(
            parser.parse(&sh, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut parser, &mut out);
        assert_eq!(sessions.len(), 1);
        let Session::Tls(hs) = &sessions[0] else {
            panic!()
        };
        assert_eq!(hs.sni(), "www.example.com");
        assert_eq!(hs.client_random, [7u8; 32]);
        assert_eq!(hs.server_random, Some([9u8; 32]));
        assert_eq!(hs.offered_ciphers, vec![0x1301, 0x1302, 0xc02f]);
        assert_eq!(hs.cipher, 0x1301);
        assert_eq!(hs.cipher(), "TLS_AES_128_GCM_SHA256");
        assert_eq!(hs.version, 0x0304, "supported_versions wins");
        assert_eq!(hs.alpn.as_deref(), Some("h2"));
    }

    #[test]
    fn handshake_split_across_segments() {
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        let ch = client_hello_record(&spec());
        // Feed the ClientHello in 7-byte chunks.
        for chunk in ch.chunks(7) {
            let r = parser.parse(chunk, Direction::ToServer, &mut out);
            assert!(matches!(r, ParseResult::Continue), "{r:?}");
        }
        let sh = server_hello_record(&ServerHelloSpec {
            cipher: 0xc02f,
            random: [1u8; 32],
            version: 0x0303,
            supported_version: None,
            alpn: None,
        });
        // Split the ServerHello in two.
        assert_eq!(
            parser.parse(&sh[..10], Direction::ToClient, &mut out),
            ParseResult::Continue
        );
        assert_eq!(
            parser.parse(&sh[10..], Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let Session::Tls(hs) = &drained(&mut parser, &mut out)[0] else {
            panic!()
        };
        assert_eq!(hs.cipher(), "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256");
        assert_eq!(hs.version, 0x0303);
    }

    /// Both hellos of `spec()`, answered, through `parser`: the session.
    fn handshake_through(parser: &mut TlsParser) -> TlsHandshake {
        let mut out = Vec::new();
        parser.parse(&client_hello_record(&spec()), Direction::ToServer, &mut out);
        let sh = server_hello_record(&ServerHelloSpec {
            cipher: 0x1301,
            random: [9u8; 32],
            version: 0x0303,
            supported_version: None,
            alpn: None,
        });
        assert_eq!(
            parser.parse(&sh, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let Some(Session::Tls(hs)) = drained(parser, &mut out).pop() else {
            panic!()
        };
        hs
    }

    #[test]
    fn a_recycled_handshake_carries_the_next_one() {
        let mut parser = TlsParser::new();
        let first = handshake_through(&mut parser);
        let buffers = |hs: &TlsHandshake| {
            (
                hs.sni.as_deref().map(str::as_ptr),
                hs.alpn.as_deref().map(str::as_ptr),
                hs.offered_ciphers.as_ptr(),
            )
        };
        let (held, expected) = (buffers(&first), first.clone());
        let bytes = "www.example.com".len() + "h2".len() + 3 * 2;
        assert_eq!(parser.recycle(Session::Tls(first)), bytes);
        assert_eq!(parser.reset(), bytes, "the spares are kept and counted");
        let second = handshake_through(&mut parser);
        assert_eq!(second, expected);
        assert_eq!(buffers(&second), held, "written into the recycled buffers");
        // A hello without SNI or ALPN leaves them absent, spares or not.
        parser.recycle(Session::Tls(second));
        parser.reset();
        let mut out = Vec::new();
        let mut bare = spec();
        (bare.sni, bare.alpn) = (None, None);
        parser.parse(&client_hello_record(&bare), Direction::ToServer, &mut out);
        parser.parse(&[20u8, 3, 3, 0, 1, 1], Direction::ToServer, &mut out);
        let Some(Session::Tls(hs)) = drained(&mut parser, &mut out).pop() else {
            panic!()
        };
        assert_eq!((hs.sni, hs.alpn), (None, None));
        assert_eq!(hs.offered_ciphers.as_ptr(), held.2);
        // The same when the ServerHello comes first.
        parser.recycle(Session::Tls(expected));
        parser.reset();
        let sh = server_hello_record(&ServerHelloSpec {
            cipher: 0x1301,
            random: [9u8; 32],
            version: 0x0303,
            supported_version: None,
            alpn: None,
        });
        parser.parse(&sh, Direction::ToClient, &mut out);
        parser.parse(&client_hello_record(&bare), Direction::ToServer, &mut out);
        let Some(Session::Tls(hs)) = drained(&mut parser, &mut out).pop() else {
            panic!()
        };
        assert_eq!((hs.sni, hs.alpn), (None, None));
        // Another protocol's session is not taken.
        let other = Session::Ssh(crate::ssh::SshHandshake::default());
        assert_eq!(parser.recycle(other), 0);
    }

    #[test]
    fn spares_that_overflow_the_allowance_are_dropped_at_reset() {
        let mut parser = TlsParser::new();
        handshake_through(&mut parser);
        let large = TlsHandshake {
            sni: Some("s".repeat(RESET_BUFFER_KEEP + 1)),
            offered_ciphers: vec![0x1301; RESET_BUFFER_KEEP / 2],
            ..TlsHandshake::default()
        };
        assert!(parser.recycle(Session::Tls(large)) > 2 * RESET_BUFFER_KEEP);
        assert_eq!(parser.reset(), 0);
        // A fresh parser's handshake allocates as it always did.
        let hs = handshake_through(&mut parser);
        assert_eq!(hs.sni.map(|s| s.capacity()), Some("www.example.com".len()));
    }

    #[test]
    fn sni_absent() {
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        let mut s = spec();
        s.sni = None;
        s.alpn = None;
        parser.parse(&client_hello_record(&s), Direction::ToServer, &mut out);
        let sh = server_hello_record(&ServerHelloSpec {
            cipher: 0x1301,
            random: [0u8; 32],
            version: 0x0303,
            supported_version: None,
            alpn: None,
        });
        assert_eq!(
            parser.parse(&sh, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let Session::Tls(hs) = &drained(&mut parser, &mut out)[0] else {
            panic!()
        };
        assert_eq!(hs.sni, None);
        assert_eq!(hs.sni(), "");
        // SessionData: absent SNI yields no field value.
        use retina_filter::SessionData;
        let session = Session::Tls(hs.clone());
        assert!(session.field("sni").is_none());
        assert!(session.field("version").is_some());
    }

    #[test]
    fn garbage_is_error() {
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        // Valid record header, bogus inner handshake.
        let mut record = vec![22, 3, 1, 0, 5];
        record.extend_from_slice(&[1, 0, 0, 1, 0]); // CH with 1-byte body
        assert_eq!(
            parser.parse(&record, Direction::ToServer, &mut out),
            ParseResult::Error
        );
    }

    #[test]
    fn non_tls_record_type_is_error() {
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        let record = [99u8, 3, 3, 0, 1, 0];
        assert_eq!(
            parser.parse(&record, Direction::ToServer, &mut out),
            ParseResult::Error
        );
    }

    #[test]
    fn oversized_buffer_rejected() {
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        // A record claiming 16K body, fed 5 bytes at a time without ever
        // completing, must hit the buffer cap rather than grow forever.
        let header = [22u8, 3, 3, 0x40, 0x00];
        let mut r = parser.parse(&header, Direction::ToServer, &mut out);
        let chunk = [0u8; 1024];
        for _ in 0..80 {
            r = parser.parse(&chunk, Direction::ToServer, &mut out);
            if r == ParseResult::Error {
                return;
            }
        }
        panic!("buffer grew unbounded: {r:?}");
    }

    #[test]
    fn ccs_finishes_handshake_without_server_hello_13() {
        // Middlebox-compat mode: client sends CCS right after CH.
        let mut parser = TlsParser::new();
        let mut out = Vec::new();
        parser.parse(&client_hello_record(&spec()), Direction::ToServer, &mut out);
        let ccs = [20u8, 3, 3, 0, 1, 1];
        assert_eq!(
            parser.parse(&ccs, Direction::ToServer, &mut out),
            ParseResult::Done
        );
        let Session::Tls(hs) = &drained(&mut parser, &mut out)[0] else {
            panic!()
        };
        assert_eq!(hs.sni(), "www.example.com");
        assert_eq!(hs.server_random, None);
    }

    #[test]
    fn field_accessors() {
        let hs = TlsHandshake {
            sni: Some("x.com".into()),
            version: 0x0303,
            cipher: 0x1301,
            alpn: Some("h2".into()),
            ..Default::default()
        };
        assert!(matches!(hs.field("sni"), Some(FieldValue::Str("x.com"))));
        assert!(matches!(hs.field("version"), Some(FieldValue::Int(0x0303))));
        assert!(matches!(
            hs.field("cipher"),
            Some(FieldValue::Str("TLS_AES_128_GCM_SHA256"))
        ));
        assert!(matches!(hs.field("alpn"), Some(FieldValue::Str("h2"))));
        assert!(hs.field("nope").is_none());
    }
}
