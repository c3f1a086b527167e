//! §3.3 / Appendix A end-to-end: extend the framework with a brand-new
//! protocol module *from outside the workspace crates* — define a parser,
//! register it with the parser registry and the filter registry, filter
//! on its fields, and subscribe to its sessions. No framework changes.
//!
//! The toy protocol is "MEMO": a line-based exchange where the client
//! sends `MEMO <topic>: <text>\n` and the server replies `ACK <topic>\n`.

// Narrowing casts in this file are intentional: test and bench harnesses narrow seeded draws and counter math to compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::sync::Arc;

use retina_core::offline::run_offline;
use retina_core::subscribables::SessionRecord;
use retina_core::{CompiledFilter, RuntimeConfig};
use retina_filter::registry::{FieldDef, FieldType, FilterLayer, ProtocolDef};
use retina_filter::{FieldValue, ProtocolRegistry, SessionData};
use retina_protocols::{
    reuse_buffer, ConnParser, CustomSession, Direction, ParseResult, ParserRegistry, ProbeResult,
    Session, SessionState,
};
use retina_support::bytes::Bytes;
use retina_wire::build::{build_tcp, TcpSpec};
use retina_wire::TcpFlags;

// ------------------------------------------------------ protocol module

/// A parsed MEMO exchange.
#[derive(Debug, Clone, PartialEq)]
struct MemoSession {
    topic: String,
    text: String,
    acked: bool,
}

impl CustomSession for MemoSession {
    fn protocol(&self) -> &str {
        "memo"
    }

    fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "topic" => Some(FieldValue::Str(&self.topic)),
            "text" => Some(FieldValue::Str(&self.text)),
            "acked" => Some(FieldValue::Int(u64::from(self.acked))),
            _ => None,
        }
    }

    fn clone_box(&self) -> Box<dyn CustomSession> {
        Box::new(self.clone())
    }
}

/// Streaming parser for MEMO.
#[derive(Default)]
struct MemoParser {
    req: Vec<u8>,
    resp: Vec<u8>,
    pending: Option<MemoSession>,
    failed: bool,
}

impl ConnParser for MemoParser {
    fn name(&self) -> &'static str {
        "memo"
    }

    fn probe(&self, data: &[u8], dir: Direction) -> ProbeResult {
        let expect: &[u8] = match dir {
            Direction::ToServer => b"MEMO ",
            Direction::ToClient => b"ACK ",
        };
        let n = data.len().min(expect.len());
        if data[..n] == expect[..n] {
            if n == expect.len() {
                ProbeResult::Certain
            } else {
                ProbeResult::Unsure
            }
        } else {
            ProbeResult::NotForUs
        }
    }

    fn parse(&mut self, data: &[u8], dir: Direction, sessions: &mut Vec<Session>) -> ParseResult {
        if self.failed {
            return ParseResult::Error;
        }
        let buf = match dir {
            Direction::ToServer => &mut self.req,
            Direction::ToClient => &mut self.resp,
        };
        if buf.len() + data.len() > 4096 {
            self.failed = true;
            return ParseResult::Error;
        }
        buf.extend_from_slice(data);

        if self.pending.is_none() {
            if let Some(pos) = self.req.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.req.drain(..=pos).collect();
                let Ok(text) = std::str::from_utf8(&line) else {
                    self.failed = true;
                    return ParseResult::Error;
                };
                let Some(rest) = text.trim_end().strip_prefix("MEMO ") else {
                    self.failed = true;
                    return ParseResult::Error;
                };
                let (topic, body) = rest.split_once(": ").unwrap_or((rest, ""));
                self.pending = Some(MemoSession {
                    topic: topic.to_string(),
                    text: body.to_string(),
                    acked: false,
                });
            }
        }
        if let Some(pending) = &mut self.pending {
            if let Some(pos) = self.resp.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.resp.drain(..=pos).collect();
                if String::from_utf8_lossy(&line).starts_with("ACK ") {
                    pending.acked = true;
                }
                let done = self.pending.take().unwrap();
                sessions.push(Session::Custom(Box::new(done)));
                return ParseResult::Done;
            }
        }
        ParseResult::Continue
    }

    fn drain_sessions(&mut self, sessions: &mut Vec<Session>) {
        if let Some(p) = self.pending.take() {
            sessions.push(Session::Custom(Box::new(p)));
        }
    }

    fn reset(&mut self) -> usize {
        let (mut req, mut resp) = (
            std::mem::take(&mut self.req),
            std::mem::take(&mut self.resp),
        );
        let kept = reuse_buffer(&mut req) + reuse_buffer(&mut resp);
        *self = MemoParser {
            req,
            resp,
            ..MemoParser::default()
        };
        kept
    }

    fn session_match_state(&self) -> SessionState {
        SessionState::KeepParsing
    }
}

// ------------------------------------------------------------ traffic

fn memo_conversation(
    client: &str,
    server: &str,
    topic: &str,
    text: &str,
    ts: u64,
) -> Vec<(Bytes, u64)> {
    let client: SocketAddr = client.parse().unwrap();
    let server: SocketAddr = server.parse().unwrap();
    let mut packets = Vec::new();
    let mut push = |src: SocketAddr,
                    dst: SocketAddr,
                    seq: u32,
                    ack: u32,
                    flags: u8,
                    payload: &[u8],
                    t: u64| {
        packets.push((
            Bytes::from(build_tcp(&TcpSpec {
                src,
                dst,
                seq,
                ack,
                flags,
                window: 64,
                ttl: 64,
                payload,
            })),
            t,
        ));
    };
    push(client, server, 100, 0, TcpFlags::SYN, b"", ts);
    push(
        server,
        client,
        900,
        101,
        TcpFlags::SYN | TcpFlags::ACK,
        b"",
        ts + 1,
    );
    push(client, server, 101, 901, TcpFlags::ACK, b"", ts + 2);
    let req = format!("MEMO {topic}: {text}\n");
    push(
        client,
        server,
        101,
        901,
        TcpFlags::ACK | TcpFlags::PSH,
        req.as_bytes(),
        ts + 3,
    );
    let resp = format!("ACK {topic}\n");
    push(
        server,
        client,
        901,
        101 + req.len() as u32,
        TcpFlags::ACK | TcpFlags::PSH,
        resp.as_bytes(),
        ts + 4,
    );
    let cseq = 101 + req.len() as u32;
    let sseq = 901 + resp.len() as u32;
    push(
        client,
        server,
        cseq,
        sseq,
        TcpFlags::FIN | TcpFlags::ACK,
        b"",
        ts + 5,
    );
    push(
        server,
        client,
        sseq,
        cseq + 1,
        TcpFlags::FIN | TcpFlags::ACK,
        b"",
        ts + 6,
    );
    push(
        client,
        server,
        cseq + 1,
        sseq + 1,
        TcpFlags::ACK,
        b"",
        ts + 7,
    );
    packets
}

fn extended_registries() -> (ProtocolRegistry, ParserRegistry) {
    let mut filter_registry = ProtocolRegistry::default();
    filter_registry.register(ProtocolDef {
        name: "memo",
        layer: FilterLayer::Connection,
        parents: vec!["tcp"],
        fields: vec![
            FieldDef {
                name: "topic",
                ty: FieldType::Str,
            },
            FieldDef {
                name: "text",
                ty: FieldType::Str,
            },
            FieldDef {
                name: "acked",
                ty: FieldType::Int,
            },
        ],
    });
    let mut parsers = ParserRegistry::default();
    parsers.register("memo", || Box::new(MemoParser::default()));
    (filter_registry, parsers)
}

// -------------------------------------------------------------- tests

#[test]
fn custom_protocol_end_to_end() {
    let (filter_registry, parsers) = extended_registries();
    // Filter on the custom protocol's fields.
    let filter =
        Arc::new(CompiledFilter::build("memo.topic ~ 'retina'", &filter_registry).unwrap());
    let config = RuntimeConfig {
        parsers,
        filter_registry,
        ..RuntimeConfig::default()
    };

    let mut packets = memo_conversation(
        "10.0.0.1:40000",
        "1.1.1.1:7777",
        "retina-notes",
        "lazy reconstruction",
        0,
    );
    packets.extend(memo_conversation(
        "10.0.0.2:40001",
        "1.1.1.1:7777",
        "groceries",
        "milk",
        1_000_000,
    ));

    let mut out: Vec<SessionRecord> = Vec::new();
    run_offline::<SessionRecord, _>(&filter, &config, packets, |s| out.push(s));
    assert_eq!(out.len(), 1, "only the matching memo topic");
    let session = &out[0].session;
    assert_eq!(session.protocol(), "memo");
    assert!(matches!(
        session.field("topic"),
        Some(FieldValue::Str("retina-notes"))
    ));
    assert!(matches!(
        session.field("text"),
        Some(FieldValue::Str("lazy reconstruction"))
    ));
    assert!(matches!(session.field("acked"), Some(FieldValue::Int(1))));
}

#[test]
fn custom_protocol_coexists_with_builtins() {
    // The probe stage must pick the right parser among builtins + memo.
    let (filter_registry, parsers) = extended_registries();
    let filter = Arc::new(CompiledFilter::build("memo or http", &filter_registry).unwrap());
    let config = RuntimeConfig {
        parsers,
        filter_registry,
        ..RuntimeConfig::default()
    };

    let mut packets = memo_conversation("10.0.0.1:40000", "1.1.1.1:7777", "t", "x", 0);
    // An HTTP conversation that must still be classified as http.
    let mut http_conv = memo_conversation("10.0.0.3:40003", "2.2.2.2:80", "unused", "unused", 0);
    http_conv.clear();
    {
        use retina_protocols::http;
        let client: SocketAddr = "10.0.0.3:40003".parse().unwrap();
        let server: SocketAddr = "2.2.2.2:80".parse().unwrap();
        let req = http::build_request("GET", "/", "h.test", "ua");
        let resp = http::build_response(200, 0);
        let mk = |src: SocketAddr,
                  dst: SocketAddr,
                  seq: u32,
                  ack: u32,
                  flags: u8,
                  payload: &[u8],
                  t: u64| {
            (
                Bytes::from(build_tcp(&TcpSpec {
                    src,
                    dst,
                    seq,
                    ack,
                    flags,
                    window: 64,
                    ttl: 64,
                    payload,
                })),
                t,
            )
        };
        http_conv.push(mk(client, server, 10, 0, TcpFlags::SYN, b"", 5_000_000));
        http_conv.push(mk(
            server,
            client,
            90,
            11,
            TcpFlags::SYN | TcpFlags::ACK,
            b"",
            5_000_001,
        ));
        http_conv.push(mk(client, server, 11, 91, TcpFlags::ACK, b"", 5_000_002));
        http_conv.push(mk(
            client,
            server,
            11,
            91,
            TcpFlags::ACK | TcpFlags::PSH,
            &req,
            5_000_003,
        ));
        http_conv.push(mk(
            server,
            client,
            91,
            11 + req.len() as u32,
            TcpFlags::ACK | TcpFlags::PSH,
            &resp,
            5_000_004,
        ));
    }
    packets.extend(http_conv);
    packets.sort_by_key(|(_, ts)| *ts);

    let mut protos: Vec<String> = Vec::new();
    run_offline::<SessionRecord, _>(&filter, &config, packets, |s| {
        protos.push(s.session.protocol().to_string());
    });
    protos.sort();
    assert_eq!(protos, vec!["http".to_string(), "memo".to_string()]);
}

#[test]
fn custom_parser_reset_is_a_fresh_one() {
    // What a per-core pool relies on: whatever the parser was left
    // holding — a line cut mid-segment, a stream that ended in `Error` —
    // a reset one handles the next connection as a fresh one does.
    let conversation = [
        (Direction::ToServer, &b"MEMO retina: pooled\n"[..]),
        (Direction::ToClient, &b"ACK retina\n"[..]),
    ];
    let outcome = |parser: &mut MemoParser| {
        let mut sessions = Vec::new();
        let results: Vec<_> = (conversation.iter())
            .map(|&(dir, seg)| {
                (
                    parser.probe(seg, dir),
                    parser.parse(seg, dir, &mut sessions),
                )
            })
            .collect();
        parser.drain_sessions(&mut sessions);
        (results, format!("{sessions:?}"))
    };
    for dirt in [&b"MEMO half a li"[..], &b"NOTE oops\n"[..]] {
        let (mut used, mut dropped) = (MemoParser::default(), Vec::new());
        let _ = used.parse(dirt, Direction::ToServer, &mut dropped);
        let _ = used.parse(b"ACK", Direction::ToClient, &mut dropped);
        assert!(used.reset() <= 2 * retina_protocols::RESET_BUFFER_KEEP);
        assert_eq!(outcome(&mut used), outcome(&mut MemoParser::default()));
    }
}

#[test]
fn custom_session_clone_and_eq() {
    let s = Session::Custom(Box::new(MemoSession {
        topic: "t".into(),
        text: "x".into(),
        acked: false,
    }));
    let c = s.clone();
    assert_eq!(s.protocol(), c.protocol());
    assert_eq!(s, c);
    assert_ne!(
        s,
        Session::Http(retina_protocols::http::HttpTransaction::default())
    );
}
