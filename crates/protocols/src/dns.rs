//! DNS message parsing (UDP datagrams and TCP length-prefixed streams).
//!
//! Each query/response exchange yields one [`DnsMessage`] session with the
//! query name/type and, once the response arrives, the response code and
//! answer count. Compressed names are followed with a strict jump bound so
//! malicious pointer loops terminate.

// Narrowing casts in this file are intentional: wire formats pack values into fixed-width header fields.
#![allow(clippy::cast_possible_truncation)]

use retina_filter::FieldValue;

use crate::parser::{ConnParser, Direction, ParseResult, ProbeResult, Session};

/// Maximum compression-pointer jumps followed while decoding one name.
const MAX_JUMPS: usize = 16;
/// Maximum decoded name length.
const MAX_NAME: usize = 255;

/// One DNS query/response exchange.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DnsMessage {
    /// Transaction ID.
    pub id: u16,
    /// Query name (lower-cased, dot-separated).
    pub query_name: String,
    /// Query type (1 = A, 28 = AAAA, …).
    pub query_type: u16,
    /// Response code, once a response has been parsed.
    pub resp_code: Option<u16>,
    /// Answer record count from the response.
    pub answers: u16,
}

impl DnsMessage {
    /// Field accessor backing [`retina_filter::SessionData`].
    pub fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "query_name" => Some(FieldValue::Str(&self.query_name)),
            "query_type" => Some(FieldValue::Int(u64::from(self.query_type))),
            "resp_code" => self.resp_code.map(|c| FieldValue::Int(u64::from(c))),
            _ => None,
        }
    }
}

/// A wire-format DNS message whose question name, if it has one, is
/// well-formed: its header fields, checked without building the name.
struct Checked<'a> {
    data: &'a [u8],
    /// Where the question name ends, and its decoded length.
    name: Option<(usize, usize)>,
}

impl<'a> Checked<'a> {
    fn new(data: &'a [u8]) -> Option<Self> {
        if data.len() < 12 {
            return None;
        }
        let qdcount = u16::from_be_bytes([data[4], data[5]]);
        let name = if qdcount >= 1 {
            Some(walk_name(data, 12, |_| {})?)
        } else {
            None
        };
        Some(Checked { data, name })
    }

    fn is_response(&self) -> bool {
        self.data[2] & 0x80 != 0
    }

    fn resp_code(&self) -> Option<u16> {
        self.is_response().then_some(u16::from(self.data[3] & 0x0f))
    }

    fn answers(&self) -> u16 {
        u16::from_be_bytes([self.data[6], self.data[7]])
    }

    /// The message, its query name decoded into a `String` of exactly its
    /// length.
    fn message(&self) -> DnsMessage {
        let data = self.data;
        let mut msg = DnsMessage {
            id: u16::from_be_bytes([data[0], data[1]]),
            answers: self.answers(),
            resp_code: self.resp_code(),
            ..Default::default()
        };
        if let Some((end, len)) = self.name {
            let mut name = String::with_capacity(len);
            walk_name(data, 12, |label| {
                if !name.is_empty() {
                    name.push('.');
                }
                name.extend(label.iter().map(|&b| (b as char).to_ascii_lowercase()));
            });
            msg.query_name = name;
            if data.len() >= end + 4 {
                msg.query_type = u16::from_be_bytes([data[end], data[end + 1]]);
            }
        }
        msg
    }
}

/// Walks the possibly-compressed name at `offset` label by label, under
/// the decoder's bounds: at most [`MAX_JUMPS`] pointers, labels of at
/// most 63 bytes, at most [`MAX_NAME`] bytes decoded. Returns the offset
/// just past the name (in the *original* position, not the jump target)
/// and the length of its decoded, dot-separated form — a byte of 0x80 or
/// above decodes to two.
fn walk_name<'a>(
    data: &'a [u8],
    mut offset: usize,
    mut each_label: impl FnMut(&'a [u8]),
) -> Option<(usize, usize)> {
    let mut decoded = 0;
    let mut jumps = 0;
    let mut end_offset = None;
    loop {
        let len = *data.get(offset)? as usize;
        if len == 0 {
            offset += 1;
            break;
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            let lo = *data.get(offset + 1)? as usize;
            end_offset.get_or_insert(offset + 2);
            offset = ((len & 0x3f) << 8) | lo;
            jumps += 1;
            if jumps > MAX_JUMPS {
                return None;
            }
            continue;
        }
        if len > 63 {
            return None;
        }
        let label = data.get(offset + 1..offset + 1 + len)?;
        decoded += usize::from(decoded > 0);
        if decoded + len > MAX_NAME {
            return None;
        }
        decoded += len + label.iter().filter(|&&b| b >= 0x80).count();
        each_label(label);
        offset += 1 + len;
    }
    Some((end_offset.unwrap_or(offset), decoded))
}

/// Encodes a dotted name into wire format.
fn encode_name(name: &str, out: &mut Vec<u8>) {
    for label in name.split('.') {
        if label.is_empty() {
            continue;
        }
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
}

/// Streaming DNS parser (UDP message-per-segment; TCP length-prefixed).
#[derive(Debug, Default)]
pub struct DnsParser {
    /// The outstanding query, if a response has not yet been seen.
    outstanding: Option<DnsMessage>,
    failed: bool,
}

impl DnsParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    fn handle(&mut self, data: &[u8], sessions: &mut Vec<Session>) -> ParseResult {
        let Some(msg) = Checked::new(data) else {
            self.failed = true;
            return ParseResult::Error;
        };
        if msg.is_response() {
            // The outstanding query already holds the name: a response
            // decodes it only when it answers none.
            let mut session = self.outstanding.take().unwrap_or_else(|| msg.message());
            session.resp_code = msg.resp_code();
            session.answers = msg.answers();
            sessions.push(Session::Dns(session));
            ParseResult::Done
        } else {
            self.outstanding = Some(msg.message());
            ParseResult::Continue
        }
    }
}

impl ConnParser for DnsParser {
    fn name(&self) -> &'static str {
        "dns"
    }

    fn probe(&self, data: &[u8], _dir: Direction) -> ProbeResult {
        // Plausible header *and* a well-formed question name — checking
        // the name keeps protocols with DNS-shaped prefixes (e.g. QUIC
        // long headers with low version bytes) from being claimed. The
        // name is walked, not built: a probe allocates nothing.
        let body = strip_tcp_prefix(data).unwrap_or(data);
        if body.len() < 12 {
            return ProbeResult::Unsure;
        }
        let flags = u16::from_be_bytes([body[2], body[3]]);
        let opcode = (flags >> 11) & 0xf;
        let qdcount = u16::from_be_bytes([body[4], body[5]]);
        if opcode <= 2 && (1..=4).contains(&qdcount) && Checked::new(body).is_some() {
            ProbeResult::Certain
        } else {
            ProbeResult::NotForUs
        }
    }

    fn parse(&mut self, data: &[u8], _dir: Direction, sessions: &mut Vec<Session>) -> ParseResult {
        if self.failed {
            return ParseResult::Error;
        }
        let body = strip_tcp_prefix(data).unwrap_or(data);
        self.handle(body, sessions)
    }

    fn drain_sessions(&mut self, sessions: &mut Vec<Session>) {
        // A query that never received a response is still a session (it
        // carries the name and type) — emit it on drain at termination.
        if let Some(q) = self.outstanding.take() {
            sessions.push(Session::Dns(q));
        }
    }

    fn reset(&mut self) -> usize {
        // Message-per-segment: nothing is buffered across segments.
        *self = DnsParser::default();
        0
    }
}

/// If `data` looks like a TCP DNS message (2-byte length prefix equal to
/// the remaining length), returns the body.
fn strip_tcp_prefix(data: &[u8]) -> Option<&[u8]> {
    if data.len() >= 14 {
        let len = usize::from(u16::from_be_bytes([data[0], data[1]]));
        if len == data.len() - 2 {
            return Some(&data[2..]);
        }
    }
    None
}

/// Builds a DNS query datagram.
pub fn build_query(id: u16, name: &str, qtype: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + name.len() + 6);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&0x0100u16.to_be_bytes()); // RD
    out.extend_from_slice(&1u16.to_be_bytes()); // QD
    out.extend_from_slice(&[0; 6]); // AN/NS/AR
    encode_name(name, &mut out);
    out.extend_from_slice(&qtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
    out
}

/// Builds a DNS response datagram with `answers` A records and the given
/// response code.
pub fn build_response(id: u16, name: &str, qtype: u16, answers: u16, rcode: u16) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&(0x8180 | (rcode & 0xf)).to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&answers.to_be_bytes());
    out.extend_from_slice(&[0; 4]);
    encode_name(name, &mut out);
    out.extend_from_slice(&qtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    for i in 0..answers {
        // Compressed pointer back to the question name (offset 12).
        out.extend_from_slice(&[0xc0, 12]);
        out.extend_from_slice(&1u16.to_be_bytes()); // A
        out.extend_from_slice(&1u16.to_be_bytes()); // IN
        out.extend_from_slice(&60u32.to_be_bytes()); // TTL
        out.extend_from_slice(&4u16.to_be_bytes());
        out.extend_from_slice(&[93, 184, 216, (34 + i) as u8]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::drained;

    #[test]
    fn query_response_roundtrip() {
        let mut p = DnsParser::new();
        let mut out = Vec::new();
        let q = build_query(0x1234, "www.Example.COM", 1);
        assert_eq!(p.probe(&q, Direction::ToServer), ProbeResult::Certain);
        assert_eq!(
            p.parse(&q, Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        let r = build_response(0x1234, "www.example.com", 1, 2, 0);
        assert_eq!(
            p.parse(&r, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 1);
        let Session::Dns(m) = &sessions[0] else {
            panic!()
        };
        assert_eq!(m.id, 0x1234);
        assert_eq!(m.query_name, "www.example.com", "names are lower-cased");
        assert_eq!(m.query_type, 1);
        assert_eq!(m.resp_code, Some(0));
        assert_eq!(m.answers, 2);
    }

    #[test]
    fn unanswered_query_emitted_on_drain() {
        let mut p = DnsParser::new();
        let mut out = Vec::new();
        p.parse(
            &build_query(7, "lost.example", 28),
            Direction::ToServer,
            &mut out,
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 1);
        let Session::Dns(m) = &sessions[0] else {
            panic!()
        };
        assert_eq!(m.query_name, "lost.example");
        assert_eq!(m.resp_code, None);
    }

    #[test]
    fn nxdomain_rcode() {
        let mut p = DnsParser::new();
        let mut out = Vec::new();
        p.parse(
            &build_query(9, "nope.test", 1),
            Direction::ToServer,
            &mut out,
        );
        p.parse(
            &build_response(9, "nope.test", 1, 0, 3),
            Direction::ToClient,
            &mut out,
        );
        let Session::Dns(m) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(m.resp_code, Some(3));
    }

    #[test]
    fn compression_pointer_decoding() {
        let r = build_response(1, "a.b.example.org", 1, 1, 0);
        let msg = Checked::new(&r).unwrap();
        assert!(msg.is_response());
        let name = msg.message().query_name;
        assert_eq!(name, "a.b.example.org");
        assert_eq!(name.capacity(), name.len(), "sized exactly");
    }

    #[test]
    fn high_bytes_decode_to_two_and_count_so() {
        // A 63-byte label of 0xff decodes to 126 bytes, so two such labels
        // make 253 with the dot. The bound is checked before a label's
        // bytes are decoded, at their wire length: one more 1-byte label
        // (254 + 1) passes and decodes to 256, a 2-byte one does not.
        let name = |labels: &[usize]| {
            let mut data = vec![0u8; 12];
            data[5] = 1;
            for &len in labels {
                data.push(len as u8);
                data.extend(std::iter::repeat_n(0xff, len));
            }
            data.extend_from_slice(&[0, 0, 1, 0, 1]);
            Checked::new(&data).map(|m| m.message().query_name)
        };
        let two = name(&[63, 63]).unwrap();
        assert_eq!((two.len(), two.capacity()), (253, 253));
        let three = name(&[63, 63, 1]).unwrap();
        assert_eq!((three.len(), three.capacity()), (256, 256));
        assert!(name(&[63, 63, 2]).is_none());
    }

    #[test]
    fn pointer_loop_bounded() {
        // A name that points at itself.
        let mut data = vec![0u8; 12];
        data[4] = 0;
        data[5] = 1; // qdcount 1
        data.extend_from_slice(&[0xc0, 12]); // pointer to itself
        data.extend_from_slice(&[0, 1, 0, 1]);
        assert!(Checked::new(&data).is_none());
    }

    #[test]
    fn oversized_label_rejected() {
        let mut data = vec![0u8; 12];
        data[5] = 1;
        data.push(64); // label length > 63
        data.extend_from_slice(&[b'x'; 64]);
        data.push(0);
        assert!(Checked::new(&data).is_none());
    }

    #[test]
    fn truncated_header_rejected() {
        let mut p = DnsParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p.parse(&[0u8; 5], Direction::ToServer, &mut out),
            ParseResult::Error
        );
    }

    #[test]
    fn tcp_length_prefix() {
        let q = build_query(3, "tcp.example", 1);
        let mut framed = Vec::new();
        framed.extend_from_slice(&(q.len() as u16).to_be_bytes());
        framed.extend_from_slice(&q);
        let mut p = DnsParser::new();
        let mut out = Vec::new();
        assert_eq!(p.probe(&framed, Direction::ToServer), ProbeResult::Certain);
        assert_eq!(
            p.parse(&framed, Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        let Session::Dns(m) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(m.query_name, "tcp.example");
    }

    #[test]
    fn probe_rejects_http() {
        let p = DnsParser::new();
        assert_eq!(
            p.probe(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", Direction::ToServer),
            ProbeResult::NotForUs
        );
    }

    #[test]
    fn field_accessors() {
        let m = DnsMessage {
            id: 1,
            query_name: "example.com".into(),
            query_type: 28,
            resp_code: Some(0),
            answers: 1,
        };
        assert!(matches!(
            m.field("query_name"),
            Some(FieldValue::Str("example.com"))
        ));
        assert!(matches!(m.field("query_type"), Some(FieldValue::Int(28))));
        assert!(matches!(m.field("resp_code"), Some(FieldValue::Int(0))));
        assert!(m.field("ttl").is_none());
    }
}
