//! QUIC long-header parsing (RFC 8999/9000).
//!
//! QUIC is the "extend the framework with a new protocol" example made
//! real: the module extracts what is visible *without* decryption — the
//! version and the connection IDs of Initial packets. (The ClientHello
//! inside a v1 Initial is encrypted with keys derived from the DCID;
//! recovering the SNI would require HKDF/AES-128-GCM, outside this
//! repository's dependency budget, so `quic.sni` is intentionally not a
//! field.)

// Narrowing casts in this file are intentional: wire formats pack values into fixed-width header fields.
#![allow(clippy::cast_possible_truncation)]

use retina_filter::FieldValue;

use crate::parser::{ConnParser, Direction, ParseResult, ProbeResult, Session, SessionState};

/// QUIC versions the probe recognizes.
const KNOWN_VERSIONS: [u32; 4] = [
    0x0000_0001, // v1 (RFC 9000)
    0x6b33_43cf, // v2 (RFC 9369)
    0xff00_001d, // draft-29
    0x0000_0000, // version negotiation
];

/// A parsed QUIC long header.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuicHandshake {
    /// Wire version field.
    pub version: u32,
    /// Destination connection ID (client-chosen for Initials), hex.
    pub dcid: String,
    /// Source connection ID, hex.
    pub scid: String,
}

impl QuicHandshake {
    /// Field accessor backing [`retina_filter::SessionData`].
    pub fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "version" => Some(FieldValue::Int(u64::from(self.version))),
            "dcid" => Some(FieldValue::Str(&self.dcid)),
            "scid" => Some(FieldValue::Str(&self.scid)),
            _ => None,
        }
    }
}

impl crate::parser::CustomSession for QuicHandshake {
    fn protocol(&self) -> &str {
        "quic"
    }

    fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        QuicHandshake::field(self, name)
    }

    fn clone_box(&self) -> Box<dyn crate::parser::CustomSession> {
        Box::new(self.clone())
    }
}

/// `bytes` in lowercase hex, written into one string of exactly their
/// size.
fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(2 * bytes.len());
    for b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0x0f)]));
    }
    out
}

/// A valid long header, read where it lies in its datagram.
struct LongHeader<'a> {
    version: u32,
    dcid: &'a [u8],
    scid: &'a [u8],
}

impl LongHeader<'_> {
    /// The session it opens: the connection IDs hex-encoded.
    fn handshake(&self) -> QuicHandshake {
        QuicHandshake {
            version: self.version,
            dcid: hex(self.dcid),
            scid: hex(self.scid),
        }
    }
}

/// Validates a long header at the front of one UDP datagram payload,
/// building nothing.
fn long_header(data: &[u8]) -> Option<LongHeader<'_>> {
    // Long form: bit 7 set; fixed bit (6) set except version negotiation.
    if data.len() < 7 || data[0] & 0x80 == 0 {
        return None;
    }
    let version = u32::from_be_bytes(data[1..5].try_into().ok()?);
    if !KNOWN_VERSIONS.contains(&version) {
        return None;
    }
    if version != 0 && data[0] & 0x40 == 0 {
        return None;
    }
    let dcid_len = usize::from(data[5]);
    if dcid_len > 20 || data.len() < 6 + dcid_len + 1 {
        return None;
    }
    let dcid = &data[6..6 + dcid_len];
    let scid_len = usize::from(data[6 + dcid_len]);
    if scid_len > 20 || data.len() < 7 + dcid_len + scid_len {
        return None;
    }
    let scid = &data[7 + dcid_len..7 + dcid_len + scid_len];
    Some(LongHeader {
        version,
        dcid,
        scid,
    })
}

/// Builds a minimal v1 Initial-style long header followed by opaque
/// payload bytes (used by the traffic generator).
pub fn build_long_header(version: u32, dcid: &[u8], scid: &[u8], payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(7 + dcid.len() + scid.len() + payload_len);
    out.push(0xC0); // long form + fixed bit, type Initial
    out.extend_from_slice(&version.to_be_bytes());
    out.push(dcid.len() as u8);
    out.extend_from_slice(dcid);
    out.push(scid.len() as u8);
    out.extend_from_slice(scid);
    out.resize(out.len() + payload_len, 0xEB); // "encrypted" bytes
    out
}

/// Streaming QUIC parser: the first parseable long header yields the
/// session; everything after is encrypted and ignored.
#[derive(Debug, Default)]
pub struct QuicParser {
    done: bool,
}

impl QuicParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ConnParser for QuicParser {
    fn name(&self) -> &'static str {
        "quic"
    }

    fn probe(&self, data: &[u8], _dir: Direction) -> ProbeResult {
        if data.is_empty() {
            return ProbeResult::Unsure;
        }
        if data[0] & 0x80 == 0 {
            // Short header first: could be mid-connection QUIC, but
            // indistinguishable from noise — not ours.
            return ProbeResult::NotForUs;
        }
        if data.len() < 7 {
            return ProbeResult::Unsure;
        }
        if long_header(data).is_some() {
            ProbeResult::Certain
        } else {
            ProbeResult::NotForUs
        }
    }

    fn parse(&mut self, data: &[u8], _dir: Direction, sessions: &mut Vec<Session>) -> ParseResult {
        if self.done {
            return ParseResult::Done;
        }
        match long_header(data) {
            Some(header) => {
                self.done = true;
                sessions.push(Session::Custom(Box::new(header.handshake())));
                ParseResult::Done
            }
            None => ParseResult::Continue, // short-header / coalesced data
        }
    }

    fn drain_sessions(&mut self, _sessions: &mut Vec<Session>) {}

    fn reset(&mut self) -> usize {
        *self = QuicParser::default();
        0
    }

    fn session_match_state(&self) -> SessionState {
        // Everything after the first packets is encrypted: stop.
        SessionState::Remove
    }

    fn session_nomatch_state(&self) -> SessionState {
        SessionState::Remove
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::drained;
    use retina_filter::SessionData;

    #[test]
    fn long_header_roundtrip() {
        let pkt = build_long_header(1, &[0xAA, 0xBB, 0xCC], &[0x11], 120);
        let mut p = QuicParser::new();
        let mut out = Vec::new();
        assert_eq!(p.probe(&pkt, Direction::ToServer), ProbeResult::Certain);
        assert_eq!(
            p.parse(&pkt, Direction::ToServer, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].protocol(), "quic");
        assert!(matches!(
            sessions[0].field("version"),
            Some(FieldValue::Int(1))
        ));
        assert!(matches!(
            sessions[0].field("dcid"),
            Some(FieldValue::Str("aabbcc"))
        ));
        assert!(matches!(
            sessions[0].field("scid"),
            Some(FieldValue::Str("11"))
        ));
    }

    #[test]
    fn hex_is_two_lowercase_digits_per_byte() {
        let every: Vec<u8> = (0..=255).collect();
        let formatted: String = every.iter().map(|b| format!("{b:02x}")).collect();
        let encoded = hex(&every);
        assert_eq!(encoded, formatted);
        assert_eq!(encoded.capacity(), 512, "sized once, exactly");
        assert_eq!(hex(&[]).capacity(), 0);
    }

    #[test]
    fn probe_rejects_non_quic() {
        let p = QuicParser::new();
        assert_eq!(
            p.probe(b"GET / HTTP/1.1", Direction::ToServer),
            ProbeResult::NotForUs
        );
        // DNS query: high bits clear.
        let dns = crate::dns::build_query(0x1234, "a.example", 1);
        assert_eq!(p.probe(&dns, Direction::ToServer), ProbeResult::NotForUs);
        // Long form but unknown version.
        let mut bogus = build_long_header(1, &[1], &[2], 10);
        bogus[1..5].copy_from_slice(&0xdeadbeefu32.to_be_bytes());
        assert_eq!(p.probe(&bogus, Direction::ToServer), ProbeResult::NotForUs);
    }

    #[test]
    fn version_negotiation_parses() {
        let mut pkt = build_long_header(0, &[9; 8], &[7; 8], 0);
        pkt[0] = 0x80; // VN packets may clear the fixed bit
        assert!(long_header(&pkt).is_some());
    }

    #[test]
    fn malformed_headers_rejected() {
        assert!(long_header(&[]).is_none());
        assert!(long_header(&[0xC0, 0, 0, 0, 1]).is_none()); // truncated
        let mut long_cid = build_long_header(1, &[1; 20], &[2], 0);
        long_cid[5] = 21; // dcid_len over RFC bound
        assert!(long_header(&long_cid).is_none());
    }

    #[test]
    fn short_header_then_long_header() {
        // Mid-connection pickup: first datagram is a short header; the
        // parser keeps waiting, then catches a retransmitted Initial.
        let mut p = QuicParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p.parse(&[0x40, 1, 2, 3], Direction::ToClient, &mut out),
            ParseResult::Continue
        );
        let init = build_long_header(1, &[5; 4], &[6; 4], 50);
        assert_eq!(
            p.parse(&init, Direction::ToServer, &mut out),
            ParseResult::Done
        );
    }
}
