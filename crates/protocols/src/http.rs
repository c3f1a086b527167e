//! HTTP/1.x transaction parsing.
//!
//! Parses request and response head sections (start line + headers) into
//! [`HttpTransaction`] sessions, each where it lies in its segment. Bodies
//! are skipped, never buffered: by `Content-Length` accounting, and
//! chunked bodies until the terminating chunk.
//! Multiple transactions on one connection (keep-alive) each produce
//! their own session, which is how the paper's packets-in-HTTP example
//! (Figure 4a) keeps a connection in the Track state after the first
//! match.

// Narrowing casts in this file are intentional: wire formats pack values into fixed-width header fields.
#![allow(clippy::cast_possible_truncation)]

use std::collections::VecDeque;

use retina_filter::FieldValue;

use crate::parser::{
    reuse_buffer, ConnParser, Direction, ParseResult, ProbeResult, Session, RESET_BUFFER_KEEP,
};

/// Maximum bytes carried per direction while waiting for a head section
/// cut at a segment boundary.
const MAX_HEAD: usize = 16 * 1024;

/// HTTP request methods recognized by the probe.
const METHODS: &[&str] = &[
    "GET ", "POST ", "PUT ", "HEAD ", "DELETE ", "OPTIONS ", "PATCH ", "TRACE ", "CONNECT ",
];

/// One parsed HTTP request/response exchange.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HttpTransaction {
    /// Request method (`GET`, …).
    pub method: String,
    /// Request target.
    pub uri: String,
    /// `Host` header value.
    pub host: Option<String>,
    /// `User-Agent` header value.
    pub user_agent: Option<String>,
    /// Response status code (0 until the response head is parsed).
    pub status: u16,
    /// Response `Content-Length`, when present.
    pub content_length: Option<u64>,
}

impl HttpTransaction {
    /// Field accessor backing [`retina_filter::SessionData`].
    pub fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "method" => Some(FieldValue::Str(&self.method)),
            "uri" => Some(FieldValue::Str(&self.uri)),
            "host" => self.host.as_deref().map(FieldValue::Str),
            "user_agent" => self.user_agent.as_deref().map(FieldValue::Str),
            "status" => Some(FieldValue::Int(u64::from(self.status))),
            "content_length" => self.content_length.map(FieldValue::Int),
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
enum BodyState {
    #[default]
    None,
    /// Remaining body bytes to skip.
    Counted(u64),
    /// Chunked transfer; skip until `0\r\n\r\n`.
    Chunked,
}

/// Ends a head section.
const HEAD_END: &[u8] = b"\r\n\r\n";
/// Ends a chunked body (the last chunk, with no trailers).
const LAST_CHUNK: &[u8] = b"0\r\n\r\n";

/// Streaming HTTP/1.x parser. Heads are parsed where they lie in the
/// segment and bodies skipped by advancing past them: a direction carries
/// only a head cut at a segment boundary, or — inside a chunked body —
/// the last four bytes, which may begin the last-chunk marker.
#[derive(Debug, Default)]
pub struct HttpParser {
    req_carry: Vec<u8>,
    resp_carry: Vec<u8>,
    resp_body: BodyState,
    /// Requests whose responses have not arrived yet (pipelining).
    pending: VecDeque<HttpTransaction>,
    failed: bool,
}

impl HttpParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    fn parse_requests(&mut self, mut data: &[u8]) -> Result<(), ()> {
        while let Some(txn) = next_head(&mut self.req_carry, &mut data, parse_request)? {
            self.pending.push_back(txn?);
        }
        Ok(())
    }

    /// Reads the responses in `data`, each completing the oldest pending
    /// request's transaction, which goes to `sessions`.
    fn parse_responses(&mut self, mut data: &[u8], sessions: &mut Vec<Session>) -> Result<(), ()> {
        loop {
            // First skip any body in progress.
            match &mut self.resp_body {
                BodyState::None => {}
                BodyState::Counted(remaining) => {
                    let n = (*remaining).min(data.len() as u64);
                    data = &data[n as usize..];
                    *remaining -= n;
                    if *remaining > 0 {
                        return Ok(());
                    }
                    self.resp_body = BodyState::None;
                }
                BodyState::Chunked => {
                    // Look for the last-chunk marker; a simplification that
                    // holds for our generated traffic and keeps state small.
                    let carry = &mut self.resp_carry;
                    let Some(end) = end_across(carry, data, LAST_CHUNK) else {
                        // Keep only a tail that might hold a partial marker.
                        carry.extend_from_slice(&data[data.len().saturating_sub(4)..]);
                        carry.drain(..carry.len().saturating_sub(4));
                        return Ok(());
                    };
                    carry.clear();
                    data = &data[end..];
                    self.resp_body = BodyState::None;
                }
            }
            let Some(parsed) = next_head(&mut self.resp_carry, &mut data, parse_response)? else {
                return Ok(());
            };
            let (status, content_length, chunked) = parsed?;
            let mut txn = self.pending.pop_front().unwrap_or_default();
            txn.status = status;
            txn.content_length = content_length;
            // HEAD responses and 1xx/204/304 statuses carry no body even
            // when Content-Length is present (RFC 9110 §6.4.1).
            let bodyless =
                txn.method == "HEAD" || status / 100 == 1 || status == 204 || status == 304;
            sessions.push(Session::Http(txn));
            self.resp_body = if bodyless {
                BodyState::None
            } else if chunked {
                BodyState::Chunked
            } else {
                match content_length {
                    Some(n) if n > 0 => BodyState::Counted(n),
                    _ => BodyState::None,
                }
            };
        }
    }
}

/// Takes the next complete head, through its `\r\n\r\n`, off the front
/// of `carry` + `data` and hands it to `parse`: where it lies in `data`,
/// or — when `carry` holds its start — completed in the carry, which is
/// then emptied. A head that `data` leaves cut is carried, failing past
/// [`MAX_HEAD`] bytes.
fn next_head<T>(
    carry: &mut Vec<u8>,
    data: &mut &[u8],
    parse: impl FnOnce(&[u8]) -> T,
) -> Result<Option<T>, ()> {
    let end = if carry.is_empty() {
        find_subslice(data, HEAD_END).map(|pos| pos + HEAD_END.len())
    } else {
        end_across(carry, data, HEAD_END)
    };
    let Some(end) = end else {
        carry.extend_from_slice(data);
        *data = &[];
        return if carry.len() > MAX_HEAD {
            Err(())
        } else {
            Ok(None)
        };
    };
    let (head, rest) = data.split_at(end);
    *data = rest;
    if carry.is_empty() {
        return Ok(Some(parse(head)));
    }
    carry.extend_from_slice(head);
    let parsed = parse(carry);
    carry.clear();
    Ok(Some(parsed))
}

/// The offset in `data` just past the first `needle` in `carry` followed
/// by `data`, where `carry` holds no whole `needle`.
fn end_across(carry: &[u8], data: &[u8], needle: &[u8]) -> Option<usize> {
    // A needle that starts in the carry starts in its last len - 1 bytes.
    let tail = &carry[carry.len().saturating_sub(needle.len() - 1)..];
    (0..tail.len())
        .find_map(|i| {
            let (head, rest) = needle.split_at(tail.len() - i);
            (tail[i..] == *head && data.starts_with(rest)).then_some(rest.len())
        })
        .or_else(|| find_subslice(data, needle).map(|pos| pos + needle.len()))
}

/// Parses a request head into a transaction awaiting its response.
fn parse_request(head: &[u8]) -> Result<HttpTransaction, ()> {
    let text = std::str::from_utf8(head).map_err(|_| ())?;
    let mut lines = text.split("\r\n");
    let start = lines.next().ok_or(())?;
    let mut parts = start.split(' ');
    let method = parts.next().ok_or(())?.to_string();
    let uri = parts.next().ok_or(())?.to_string();
    let version = parts.next().ok_or(())?;
    if !version.starts_with("HTTP/1.") {
        return Err(());
    }
    let mut txn = HttpTransaction {
        method,
        uri,
        ..Default::default()
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("host") {
            txn.host = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("user-agent") {
            txn.user_agent = Some(value.to_string());
        }
    }
    Ok(txn)
}

/// Parses a response head: `(status, Content-Length, chunked)`.
fn parse_response(head: &[u8]) -> Result<(u16, Option<u64>, bool), ()> {
    let text = std::str::from_utf8(head).map_err(|_| ())?;
    let mut lines = text.split("\r\n");
    let start = lines.next().ok_or(())?;
    if !start.starts_with("HTTP/1.") {
        return Err(());
    }
    let status: u16 = start
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(())?;
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse::<u64>().ok();
        } else if name.eq_ignore_ascii_case("transfer-encoding")
            && value.eq_ignore_ascii_case("chunked")
        {
            chunked = true;
        }
    }
    Ok((status, content_length, chunked))
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl ConnParser for HttpParser {
    fn name(&self) -> &'static str {
        "http"
    }

    fn probe(&self, data: &[u8], dir: Direction) -> ProbeResult {
        if data.is_empty() {
            return ProbeResult::Unsure;
        }
        // Bytes, not text: a window that is not UTF-8 (binary payload, or
        // a character cut at its end) is compared as it is.
        let prefix = &data[..data.len().min(16)];
        match dir {
            Direction::ToServer => {
                if METHODS.iter().any(|m| prefix.starts_with(m.as_bytes())) {
                    return ProbeResult::Certain;
                }
                if METHODS.iter().any(|m| m.as_bytes().starts_with(prefix)) {
                    return ProbeResult::Unsure;
                }
                ProbeResult::NotForUs
            }
            Direction::ToClient => {
                if prefix.starts_with(b"HTTP/1.") {
                    return ProbeResult::Certain;
                }
                if b"HTTP/1.".starts_with(prefix) {
                    return ProbeResult::Unsure;
                }
                ProbeResult::NotForUs
            }
        }
    }

    fn parse(&mut self, data: &[u8], dir: Direction, sessions: &mut Vec<Session>) -> ParseResult {
        if self.failed {
            return ParseResult::Error;
        }
        let before = sessions.len();
        let result = match dir {
            Direction::ToServer => self.parse_requests(data),
            Direction::ToClient => self.parse_responses(data, sessions),
        };
        // A malformed head after a completed transaction fails the next
        // call: this one hands the transaction over.
        self.failed = result.is_err();
        match (sessions.len() > before, result) {
            (true, _) => ParseResult::Done,
            (false, Ok(())) => ParseResult::Continue,
            (false, Err(())) => ParseResult::Error,
        }
    }

    fn drain_sessions(&mut self, _sessions: &mut Vec<Session>) {}

    fn reset(&mut self) -> usize {
        let (mut req_carry, mut resp_carry, mut pending) = (
            std::mem::take(&mut self.req_carry),
            std::mem::take(&mut self.resp_carry),
            std::mem::take(&mut self.pending),
        );
        let kept = reuse_buffer(&mut req_carry)
            + reuse_buffer(&mut resp_carry)
            + reuse_queue(&mut pending);
        *self = HttpParser {
            req_carry,
            resp_carry,
            pending,
            ..HttpParser::default()
        };
        kept
    }
}

/// Empties the queue of pending requests for a reset parser's next
/// connection, keeping its allocation by the rule [`reuse_buffer`] keeps a
/// carry's; returns the bytes kept.
fn reuse_queue(pending: &mut VecDeque<HttpTransaction>) -> usize {
    let bytes =
        |q: &VecDeque<HttpTransaction>| q.capacity() * std::mem::size_of::<HttpTransaction>();
    if bytes(pending) > RESET_BUFFER_KEEP {
        *pending = VecDeque::new();
    } else {
        pending.clear();
    }
    bytes(pending)
}

/// Builds an HTTP/1.1 request head (used by the traffic generator).
pub fn build_request(method: &str, uri: &str, host: &str, user_agent: &str) -> Vec<u8> {
    format!(
        "{method} {uri} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {user_agent}\r\nAccept: */*\r\n\r\n"
    )
    .into_bytes()
}

/// Builds an HTTP/1.1 response head plus `body_len` bytes of body.
pub fn build_response(status: u16, body_len: usize) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nServer: nginx/1.23.1\r\nContent-Type: application/octet-stream\r\nContent-Length: {body_len}\r\n\r\n",
        status_text(status)
    )
    .into_bytes();
    head.resize(head.len() + body_len, b'x');
    head
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::drained;

    #[test]
    fn probe_directions() {
        let p = HttpParser::new();
        assert_eq!(
            p.probe(b"GET / HTTP/1.1\r\n", Direction::ToServer),
            ProbeResult::Certain
        );
        assert_eq!(p.probe(b"GE", Direction::ToServer), ProbeResult::Unsure);
        assert_eq!(
            p.probe(b"\x16\x03\x01", Direction::ToServer),
            ProbeResult::NotForUs
        );
        assert_eq!(
            p.probe(b"HTTP/1.1 200 OK", Direction::ToClient),
            ProbeResult::Certain
        );
        assert_eq!(p.probe(b"HTT", Direction::ToClient), ProbeResult::Unsure);
        assert_eq!(
            p.probe(b"SSH-2.0", Direction::ToClient),
            ProbeResult::NotForUs
        );
        // Binary payload is not HTTP, in either direction.
        for dir in [Direction::ToServer, Direction::ToClient] {
            assert_eq!(p.probe(&[0xf5; 1460], dir), ProbeResult::NotForUs);
            assert_eq!(p.probe(b"\xf5", dir), ProbeResult::NotForUs);
        }
        // A two-byte character cut by the end of the 16-byte window
        // leaves the method, or the status line, in front of it.
        for (text, dir) in [
            ("GET /cafe\u{e9}\u{e9}\u{e9}\u{e9}", Direction::ToServer),
            ("HTTP/1.1 200 \u{e9}\u{e9}", Direction::ToClient),
        ] {
            let cut = text.as_bytes();
            assert!(std::str::from_utf8(&cut[..16]).is_err(), "{text}");
            assert_eq!(p.probe(cut, dir), ProbeResult::Certain, "{text}");
        }
    }

    #[test]
    fn single_transaction() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        let req = build_request("GET", "/index.html", "example.com", "curl/8.0");
        assert_eq!(
            p.parse(&req, Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        let resp = build_response(200, 5);
        assert_eq!(
            p.parse(&resp, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 1);
        let Session::Http(t) = &sessions[0] else {
            panic!()
        };
        assert_eq!(t.method, "GET");
        assert_eq!(t.uri, "/index.html");
        assert_eq!(t.host.as_deref(), Some("example.com"));
        assert_eq!(t.user_agent.as_deref(), Some("curl/8.0"));
        assert_eq!(t.status, 200);
        assert_eq!(t.content_length, Some(5));
    }

    #[test]
    fn keepalive_transactions() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        let mut reqs = build_request("GET", "/a", "h", "ua");
        reqs.extend_from_slice(&build_request("POST", "/b", "h", "ua"));
        p.parse(&reqs, Direction::ToServer, &mut out);
        let mut resps = build_response(200, 10);
        resps.extend_from_slice(&build_response(404, 0));
        assert_eq!(
            p.parse(&resps, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 2);
        let Session::Http(a) = &sessions[0] else {
            panic!()
        };
        let Session::Http(b) = &sessions[1] else {
            panic!()
        };
        assert_eq!((a.uri.as_str(), a.status), ("/a", 200));
        assert_eq!((b.method.as_str(), b.status), ("POST", 404));
    }

    #[test]
    fn segmented_delivery() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        let req = build_request("GET", "/chunky", "example.com", "x");
        for chunk in req.chunks(3) {
            p.parse(chunk, Direction::ToServer, &mut out);
        }
        let resp = build_response(200, 100);
        let mut done = false;
        for chunk in resp.chunks(7) {
            if p.parse(chunk, Direction::ToClient, &mut out) == ParseResult::Done {
                done = true;
            }
        }
        assert!(done);
        let Session::Http(t) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(t.uri, "/chunky");
    }

    #[test]
    fn chunked_body_skipped() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        p.parse(
            &build_request("GET", "/a", "h", "u"),
            Direction::ToServer,
            &mut out,
        );
        p.parse(
            &build_request("GET", "/b", "h", "u"),
            Direction::ToServer,
            &mut out,
        );
        let resp1 = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        p.parse(resp1, Direction::ToClient, &mut out);
        let resp2 = build_response(204, 0);
        assert_eq!(
            p.parse(&resp2, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 2);
        let Session::Http(b) = &sessions[1] else {
            panic!()
        };
        assert_eq!(b.uri, "/b");
        assert_eq!(b.status, 204);
    }

    #[test]
    fn malformed_is_error() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p.parse(
                b"GARBAGE WITHOUT STRUCTURE\r\n\r\n",
                Direction::ToServer,
                &mut out
            ),
            ParseResult::Error
        );
        let mut p2 = HttpParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p2.parse(b"NOTHTTP 200\r\n\r\n", Direction::ToClient, &mut out),
            ParseResult::Error
        );
    }

    #[test]
    fn header_flood_bounded() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        // Headers that never terminate must eventually error, not grow.
        let chunk = vec![b'a'; 1024];
        let mut errored = false;
        for _ in 0..100 {
            if p.parse(&chunk, Direction::ToServer, &mut out) == ParseResult::Error {
                errored = true;
                break;
            }
        }
        assert!(errored);
    }

    #[test]
    fn response_without_request_still_parses() {
        // Mid-stream capture: response arrives with no tracked request.
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p.parse(&build_response(301, 0), Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let Session::Http(t) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(t.status, 301);
        assert_eq!(t.method, "");
    }

    #[test]
    fn head_response_has_no_body() {
        // A HEAD response advertises Content-Length but sends no body;
        // the next transaction's response must parse immediately.
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        p.parse(
            &build_request("HEAD", "/big", "h", "u"),
            Direction::ToServer,
            &mut out,
        );
        p.parse(
            &build_request("GET", "/next", "h", "u"),
            Direction::ToServer,
            &mut out,
        );
        let head_resp = b"HTTP/1.1 200 OK\r\nContent-Length: 999999\r\n\r\n";
        assert_eq!(
            p.parse(head_resp, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let next_resp = build_response(200, 3);
        assert_eq!(
            p.parse(&next_resp, Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 2);
        let Session::Http(a) = &sessions[0] else {
            panic!()
        };
        let Session::Http(b) = &sessions[1] else {
            panic!()
        };
        assert_eq!(
            (a.method.as_str(), a.content_length),
            ("HEAD", Some(999999))
        );
        assert_eq!(b.uri, "/next");
    }

    #[test]
    fn not_modified_response_has_no_body() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        p.parse(
            &build_request("GET", "/c1", "h", "u"),
            Direction::ToServer,
            &mut out,
        );
        p.parse(
            &build_request("GET", "/c2", "h", "u"),
            Direction::ToServer,
            &mut out,
        );
        let r304 = b"HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\n\r\n";
        p.parse(r304, Direction::ToClient, &mut out);
        p.parse(&build_response(200, 0), Direction::ToClient, &mut out);
        assert_eq!(drained(&mut p, &mut out).len(), 2);
    }

    #[test]
    fn field_accessors() {
        let t = HttpTransaction {
            method: "GET".into(),
            uri: "/".into(),
            host: Some("example.com".into()),
            user_agent: None,
            status: 200,
            content_length: Some(42),
        };
        assert!(matches!(t.field("method"), Some(FieldValue::Str("GET"))));
        assert!(matches!(t.field("status"), Some(FieldValue::Int(200))));
        assert!(matches!(
            t.field("content_length"),
            Some(FieldValue::Int(42))
        ));
        assert!(t.field("user_agent").is_none());
        assert!(t.field("bogus").is_none());
    }

    #[test]
    fn reset_keeps_the_request_queue() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        let get = build_request("GET", "/", "h", "u");
        p.parse(&get, Direction::ToServer, &mut out);
        let capacity = p.pending.capacity();
        assert!(capacity > 0);
        let kept = p.reset();
        assert!(p.pending.is_empty());
        assert_eq!(p.pending.capacity(), capacity);
        let queue = capacity * std::mem::size_of::<HttpTransaction>();
        let carries = p.req_carry.capacity() + p.resp_carry.capacity();
        assert_eq!(kept, queue + carries);

        // A queue grown past the allowance is freed instead.
        for _ in 0..64 {
            p.parse(&get, Direction::ToServer, &mut out);
        }
        p.reset();
        assert_eq!(p.pending.capacity(), 0);
    }

    /// The ceiling `RESET_BUFFER_KEEP`'s doc states: a reset parser keeps
    /// both carries and its queue of pending requests, each at the largest
    /// capacity `reset` keeps, so it holds more than two buffers' worth —
    /// and at most three.
    #[test]
    fn a_reset_parser_keeps_at_most_three_buffers() {
        let mut p = HttpParser::new();
        let mut out = Vec::new();
        // The queue: the largest power-of-two capacity within the
        // allowance (doubled, it would be freed).
        let per = std::mem::size_of::<HttpTransaction>();
        let queued = (RESET_BUFFER_KEEP / per + 1).next_power_of_two() / 2;
        let get = build_request("GET", "/", "h", "u");
        for _ in 0..queued {
            p.parse(&get, Direction::ToServer, &mut out);
        }
        assert_eq!(p.pending.capacity(), queued);
        // Each carry: a head cut at a segment boundary, exactly as long
        // as the allowance.
        let cut = |start: &str| {
            let mut head = start.as_bytes().to_vec();
            head.resize(RESET_BUFFER_KEEP, b'a');
            head
        };
        let request = cut("GET /");
        let response = cut("HTTP/1.1 200 OK\r\nX: ");
        assert_eq!(
            p.parse(&request, Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        assert_eq!(
            p.parse(&response, Direction::ToClient, &mut out),
            ParseResult::Continue
        );
        let carries = [p.req_carry.capacity(), p.resp_carry.capacity()];
        assert_eq!(carries, [RESET_BUFFER_KEEP; 2]);

        let kept = p.reset();
        assert_eq!(kept, 2 * RESET_BUFFER_KEEP + queued * per);
        assert!(kept > 2 * RESET_BUFFER_KEEP, "{kept}");
        assert!(kept <= 3 * RESET_BUFFER_KEEP, "{kept}");
        let held = [p.req_carry.capacity(), p.resp_carry.capacity()];
        assert_eq!((held, p.pending.capacity()), (carries, queued));
    }
}
