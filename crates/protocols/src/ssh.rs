//! SSH-2 handshake parsing: the banner exchange (RFC 4253 §4.2) and the
//! cleartext KEXINIT algorithm negotiation (§7.1) — the fields
//! large-scale SSH measurement studies key on. Parsing stops before the
//! encrypted transport begins.

// Narrowing casts in this file are intentional: wire formats pack values into fixed-width header fields.
#![allow(clippy::cast_possible_truncation)]

use retina_filter::FieldValue;

use crate::parser::{reuse_buffer, ConnParser, Direction, ParseResult, ProbeResult, Session};

/// Maximum banner line length accepted (RFC 4253 allows 255).
const MAX_BANNER: usize = 255;
/// Maximum bytes of post-banner data examined for the KEXINIT.
const MAX_KEX: usize = 8 * 1024;

/// A parsed SSH handshake.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SshHandshake {
    /// Client identification string (without CR/LF).
    pub client_banner: Option<String>,
    /// Server identification string (without CR/LF).
    pub server_banner: Option<String>,
    /// Client's offered key-exchange algorithms (comma-separated, from
    /// the cleartext KEXINIT).
    pub kex_algorithms: Option<String>,
    /// Client's offered server-host-key algorithms.
    pub host_key_algorithms: Option<String>,
}

impl SshHandshake {
    /// Field accessor backing [`retina_filter::SessionData`].
    pub fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "client_banner" => self.client_banner.as_deref().map(FieldValue::Str),
            "server_banner" => self.server_banner.as_deref().map(FieldValue::Str),
            "kex_algorithms" => self.kex_algorithms.as_deref().map(FieldValue::Str),
            "host_key_algorithms" => self.host_key_algorithms.as_deref().map(FieldValue::Str),
            _ => None,
        }
    }
}

/// Parses an SSH binary packet holding a KEXINIT (RFC 4253 §6 framing,
/// §7.1 payload): returns `(kex_algorithms, host_key_algorithms)`.
fn parse_kexinit(data: &[u8]) -> Option<(String, String)> {
    // Binary packet: packet_length u32, padding_length u8, payload…
    if data.len() < 6 {
        return None;
    }
    let packet_len = u32::from_be_bytes(data[0..4].try_into().unwrap()) as usize;
    if !(2..=MAX_KEX).contains(&packet_len) || data.len() < 4 + packet_len {
        return None;
    }
    let padding = usize::from(data[4]);
    let payload = &data[5..4 + packet_len];
    if padding >= payload.len() {
        return None;
    }
    let payload = &payload[..payload.len() - padding];
    // Payload: type (20 = SSH_MSG_KEXINIT), 16-byte cookie, name-lists.
    if payload.first() != Some(&20) || payload.len() < 17 {
        return None;
    }
    let mut rest = &payload[17..];
    let mut take_list = || -> Option<String> {
        if rest.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(rest[0..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + len || len > MAX_KEX {
            return None;
        }
        let list = std::str::from_utf8(&rest[4..4 + len]).ok()?.to_string();
        rest = &rest[4 + len..];
        Some(list)
    };
    let kex = take_list()?;
    let host_keys = take_list()?;
    Some((kex, host_keys))
}

/// Builds an SSH_MSG_KEXINIT binary packet with the given name-lists
/// (remaining lists are filled with common defaults).
pub fn build_kexinit(kex_algorithms: &str, host_key_algorithms: &str) -> Vec<u8> {
    let mut payload = vec![20u8];
    payload.extend_from_slice(&[0xA5; 16]); // cookie
    let lists = [
        kex_algorithms,
        host_key_algorithms,
        "aes128-ctr,aes256-gcm@openssh.com", // c2s ciphers
        "aes128-ctr,aes256-gcm@openssh.com", // s2c ciphers
        "hmac-sha2-256",                     // c2s macs
        "hmac-sha2-256",                     // s2c macs
        "none",                              // c2s compression
        "none",                              // s2c compression
        "",                                  // c2s languages
        "",                                  // s2c languages
    ];
    for list in lists {
        payload.extend_from_slice(&(list.len() as u32).to_be_bytes());
        payload.extend_from_slice(list.as_bytes());
    }
    payload.push(0); // first_kex_packet_follows
    payload.extend_from_slice(&0u32.to_be_bytes()); // reserved
                                                    // Frame as a binary packet: pad to a multiple of 8, min 4 padding.
    let mut padding = 8 - ((payload.len() + 5) % 8);
    if padding < 4 {
        padding += 8;
    }
    let packet_len = payload.len() + padding + 1;
    let mut out = Vec::with_capacity(4 + packet_len);
    out.extend_from_slice(&(packet_len as u32).to_be_bytes());
    out.push(padding as u8);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&vec![0u8; padding]);
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Banners,
    /// Both banners seen; awaiting the client's KEXINIT (cleartext).
    AwaitKex,
    Done,
}

/// Streaming SSH handshake parser.
#[derive(Debug)]
pub struct SshParser {
    client_buf: Vec<u8>,
    server_buf: Vec<u8>,
    handshake: SshHandshake,
    state: State,
    failed: bool,
}

impl Default for SshParser {
    fn default() -> Self {
        SshParser {
            client_buf: Vec::new(),
            server_buf: Vec::new(),
            handshake: SshHandshake::default(),
            state: State::Banners,
            failed: false,
        }
    }
}

impl SshParser {
    /// Creates an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    fn try_extract(buf: &mut Vec<u8>) -> Result<Option<String>, ()> {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            // The line is read where it lies, then dropped from the buffer.
            let banner = match std::str::from_utf8(&buf[..=pos]) {
                Ok(line) if line.starts_with("SSH-") => {
                    line.trim_end_matches(['\r', '\n']).to_string()
                }
                _ => return Err(()),
            };
            buf.drain(..=pos);
            return Ok(Some(banner));
        }
        if buf.len() > MAX_BANNER {
            return Err(());
        }
        Ok(None)
    }

    /// Moves the handshake into its session, appended to `sessions`:
    /// nothing reads it after this.
    fn finish(&mut self, sessions: &mut Vec<Session>) -> ParseResult {
        self.state = State::Done;
        let handshake = std::mem::take(&mut self.handshake);
        sessions.push(Session::Ssh(handshake));
        ParseResult::Done
    }

    fn try_kex(&mut self, sessions: &mut Vec<Session>) -> ParseResult {
        // The client's KEXINIT arrives in the client buffer right after
        // the banner; parse it when complete. Anything unparseable (e.g.
        // mid-stream pickup) ends the handshake with banners only.
        if self.client_buf.len() > MAX_KEX {
            return self.finish(sessions);
        }
        if self.client_buf.len() >= 6 {
            let packet_len = u32::from_be_bytes(self.client_buf[0..4].try_into().unwrap()) as usize;
            if !(2..=MAX_KEX).contains(&packet_len) {
                return self.finish(sessions);
            }
            if self.client_buf.len() >= 4 + packet_len {
                if let Some((kex, host_keys)) = parse_kexinit(&self.client_buf) {
                    self.handshake.kex_algorithms = Some(kex);
                    self.handshake.host_key_algorithms = Some(host_keys);
                }
                return self.finish(sessions);
            }
        }
        ParseResult::Continue
    }
}

impl ConnParser for SshParser {
    fn name(&self) -> &'static str {
        "ssh"
    }

    fn probe(&self, data: &[u8], _dir: Direction) -> ProbeResult {
        if data.is_empty() {
            return ProbeResult::Unsure;
        }
        let prefix = &data[..data.len().min(4)];
        if prefix == b"SSH-" {
            ProbeResult::Certain
        } else if b"SSH-".starts_with(prefix) {
            ProbeResult::Unsure
        } else {
            ProbeResult::NotForUs
        }
    }

    fn parse(&mut self, data: &[u8], dir: Direction, sessions: &mut Vec<Session>) -> ParseResult {
        if self.failed {
            return ParseResult::Error;
        }
        if self.state == State::Done {
            return ParseResult::Done;
        }
        let buf = match dir {
            Direction::ToServer => &mut self.client_buf,
            Direction::ToClient => &mut self.server_buf,
        };
        if buf.len() + data.len() > MAX_BANNER * 4 + MAX_KEX {
            self.failed = true;
            return ParseResult::Error;
        }
        buf.extend_from_slice(data);

        if self.state == State::Banners {
            for (buf, is_client) in [(&mut self.client_buf, true), (&mut self.server_buf, false)] {
                let slot = if is_client {
                    &mut self.handshake.client_banner
                } else {
                    &mut self.handshake.server_banner
                };
                if slot.is_none() && !buf.is_empty() {
                    match Self::try_extract(buf) {
                        Err(()) => {
                            self.failed = true;
                            return ParseResult::Error;
                        }
                        Ok(Some(banner)) => *slot = Some(banner),
                        Ok(None) => {}
                    }
                }
            }
            if self.handshake.client_banner.is_some() && self.handshake.server_banner.is_some() {
                self.state = State::AwaitKex;
            }
        }
        if self.state == State::AwaitKex {
            return self.try_kex(sessions);
        }
        ParseResult::Continue
    }

    fn drain_sessions(&mut self, sessions: &mut Vec<Session>) {
        if self.state != State::Done
            && (self.handshake.client_banner.is_some() || self.handshake.server_banner.is_some())
        {
            // Half-open exchange at connection teardown: still a session.
            self.finish(sessions);
        }
    }

    fn reset(&mut self) -> usize {
        let (mut client_buf, mut server_buf) = (
            std::mem::take(&mut self.client_buf),
            std::mem::take(&mut self.server_buf),
        );
        let kept = reuse_buffer(&mut client_buf) + reuse_buffer(&mut server_buf);
        *self = SshParser {
            client_buf,
            server_buf,
            ..SshParser::default()
        };
        kept
    }

    fn session_match_state(&self) -> crate::parser::SessionState {
        crate::parser::SessionState::Remove
    }

    fn session_nomatch_state(&self) -> crate::parser::SessionState {
        crate::parser::SessionState::Remove
    }
}

/// Builds an SSH identification line.
pub fn build_banner(software: &str) -> Vec<u8> {
    format!("SSH-2.0-{software}\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::drained;

    #[test]
    fn banner_and_kexinit_exchange() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p.parse(&build_banner("OpenSSH_9.0"), Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        assert_eq!(
            p.parse(
                &build_banner("OpenSSH_8.9p1 Ubuntu-3"),
                Direction::ToClient,
                &mut out
            ),
            ParseResult::Continue
        );
        let kexinit = build_kexinit(
            "curve25519-sha256,diffie-hellman-group14-sha256",
            "ssh-ed25519,rsa-sha2-512",
        );
        assert_eq!(
            p.parse(&kexinit, Direction::ToServer, &mut out),
            ParseResult::Done
        );
        let Session::Ssh(h) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(h.client_banner.as_deref(), Some("SSH-2.0-OpenSSH_9.0"));
        assert_eq!(
            h.server_banner.as_deref(),
            Some("SSH-2.0-OpenSSH_8.9p1 Ubuntu-3")
        );
        assert_eq!(
            h.kex_algorithms.as_deref(),
            Some("curve25519-sha256,diffie-hellman-group14-sha256")
        );
        assert_eq!(
            h.host_key_algorithms.as_deref(),
            Some("ssh-ed25519,rsa-sha2-512")
        );
    }

    #[test]
    fn kexinit_split_across_segments() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        p.parse(&build_banner("client"), Direction::ToServer, &mut out);
        p.parse(&build_banner("server"), Direction::ToClient, &mut out);
        let kexinit = build_kexinit("kex-a,kex-b", "host-a");
        for chunk in kexinit.chunks(9) {
            let r = p.parse(chunk, Direction::ToServer, &mut out);
            if r == ParseResult::Done {
                break;
            }
            assert_eq!(r, ParseResult::Continue);
        }
        let Session::Ssh(h) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(h.kex_algorithms.as_deref(), Some("kex-a,kex-b"));
    }

    #[test]
    fn banner_and_kexinit_in_one_segment() {
        // Real clients often coalesce banner + KEXINIT in one write.
        let mut p = SshParser::new();
        let mut out = Vec::new();
        let mut blob = build_banner("coalesced");
        blob.extend_from_slice(&build_kexinit("kexone", "hostone"));
        assert_eq!(
            p.parse(&blob, Direction::ToServer, &mut out),
            ParseResult::Continue
        );
        assert_eq!(
            p.parse(&build_banner("srv"), Direction::ToClient, &mut out),
            ParseResult::Done
        );
        let Session::Ssh(h) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert_eq!(h.kex_algorithms.as_deref(), Some("kexone"));
    }

    #[test]
    fn garbage_after_banners_still_yields_session() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        p.parse(&build_banner("c"), Direction::ToServer, &mut out);
        p.parse(&build_banner("s"), Direction::ToClient, &mut out);
        // Bogus binary packet (absurd length) → banners-only session.
        assert_eq!(
            p.parse(
                &[0xff, 0xff, 0xff, 0xff, 0, 0],
                Direction::ToServer,
                &mut out
            ),
            ParseResult::Done
        );
        let Session::Ssh(h) = &drained(&mut p, &mut out)[0] else {
            panic!()
        };
        assert!(h.kex_algorithms.is_none());
        assert!(h.client_banner.is_some());
    }

    #[test]
    fn probe() {
        let p = SshParser::new();
        assert_eq!(
            p.probe(b"SSH-2.0-x", Direction::ToServer),
            ProbeResult::Certain
        );
        assert_eq!(p.probe(b"SS", Direction::ToServer), ProbeResult::Unsure);
        assert_eq!(p.probe(b"GET ", Direction::ToServer), ProbeResult::NotForUs);
    }

    #[test]
    fn split_banner() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        let banner = build_banner("OpenSSH_9.0");
        p.parse(&banner[..5], Direction::ToServer, &mut out);
        p.parse(&banner[5..], Direction::ToServer, &mut out);
        p.parse(&build_banner("srv"), Direction::ToClient, &mut out);
        let sessions = {
            p.parse(&build_kexinit("k", "h"), Direction::ToServer, &mut out);
            drained(&mut p, &mut out)
        };
        let Session::Ssh(h) = &sessions[0] else {
            panic!()
        };
        assert_eq!(h.client_banner.as_deref(), Some("SSH-2.0-OpenSSH_9.0"));
    }

    #[test]
    fn half_open_drained() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        p.parse(&build_banner("lonely"), Direction::ToServer, &mut out);
        let sessions = drained(&mut p, &mut out);
        assert_eq!(sessions.len(), 1);
        let Session::Ssh(h) = &sessions[0] else {
            panic!()
        };
        assert!(h.server_banner.is_none());
    }

    #[test]
    fn non_ssh_line_is_error() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        assert_eq!(
            p.parse(b"HELLO WORLD\r\n", Direction::ToServer, &mut out),
            ParseResult::Error
        );
    }

    #[test]
    fn endless_banner_bounded() {
        let mut p = SshParser::new();
        let mut out = Vec::new();
        let chunk = [b'a'; 100];
        let mut errored = false;
        for _ in 0..20 {
            if p.parse(&chunk, Direction::ToServer, &mut out) == ParseResult::Error {
                errored = true;
                break;
            }
        }
        assert!(errored);
    }

    #[test]
    fn kexinit_roundtrip_parse() {
        let pkt = build_kexinit("a,b,c", "x");
        let (kex, hk) = parse_kexinit(&pkt).unwrap();
        assert_eq!(kex, "a,b,c");
        assert_eq!(hk, "x");
        // Truncated packet parses as None, not a panic.
        assert!(parse_kexinit(&pkt[..10]).is_none());
        assert!(parse_kexinit(&[]).is_none());
        // Wrong message type.
        let mut wrong = pkt.clone();
        wrong[5] = 21;
        assert!(parse_kexinit(&wrong).is_none());
    }

    #[test]
    fn field_accessors() {
        let h = SshHandshake {
            client_banner: Some("SSH-2.0-a".into()),
            server_banner: None,
            kex_algorithms: Some("curve25519-sha256".into()),
            host_key_algorithms: None,
        };
        assert!(matches!(
            h.field("client_banner"),
            Some(FieldValue::Str("SSH-2.0-a"))
        ));
        assert!(matches!(
            h.field("kex_algorithms"),
            Some(FieldValue::Str("curve25519-sha256"))
        ));
        assert!(h.field("server_banner").is_none());
        assert!(h.field("x").is_none());
    }
}
