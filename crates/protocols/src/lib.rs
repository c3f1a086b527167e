//! # retina-protocols
//!
//! Application-layer protocol modules (Appendix A of the paper).
//!
//! Each module implements the [`ConnParser`] trait — the crate's analogue
//! of the paper's `ConnParsable` — which defines how Retina probes a
//! connection's byte-stream for the protocol and parses it into
//! [`Session`] values once identified. Sessions implement
//! [`retina_filter::SessionData`], exposing named fields to the session
//! filter, so adding a protocol module automatically extends the filter
//! language (§3.3).
//!
//! Implemented protocols:
//!
//! - [`tls`] — TLS 1.0–1.3 handshakes: ClientHello/ServerHello (SNI,
//!   ALPN, ciphersuites, versions, client/server randoms), read where
//!   they lie in each segment; only a record or handshake message that
//!   straddles a boundary is carried.
//! - [`http`] — HTTP/1.x request/response transactions (method, URI,
//!   host, user agent, status, content length), with pipelining support;
//!   heads are parsed in place and bodies skipped, never buffered.
//! - [`dns`] — DNS queries/responses, including compressed-name parsing
//!   with loop bounds.
//! - [`ssh`] — SSH-2 banner + cleartext KEXINIT exchange.
//! - [`quic`] — QUIC long-header metadata (version, connection IDs).
//!
//! Every module also ships a `build_*` constructor used by the synthetic
//! traffic generator, which doubles as the round-trip test vector source.
//!
//! All parsers are panic-free on arbitrary input and bound their internal
//! buffering, per the security goals of §2.

#![warn(missing_docs)]

pub mod dns;
pub mod http;
pub mod parser;
pub mod quic;
pub mod ssh;
pub mod tls;

pub use parser::{
    reuse_buffer, ConnParser, CustomSession, Direction, ParseResult, ParserFactory, ParserRegistry,
    ProbeResult, Session, SessionState, StandaloneParser, RESET_BUFFER_KEEP,
};
