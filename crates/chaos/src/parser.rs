//! Parser-level fault injection.
//!
//! [`ChaosParser`] is a [`ConnParser`] that panics on payloads whose
//! content hash satisfies the armed condition — a stand-in for a buggy
//! protocol module. The runtime must convert those panics into
//! recoverable parse errors (`CoreStats::parser_panics`) instead of
//! taking the worker core down.
//!
//! Panic decisions are **content-based** (a hash of the bytes being
//! probed or parsed), never call-count-based, so they are independent
//! of scheduling and burst boundaries and replay exactly.
//!
//! Parser registries hold plain `fn()` factories, so the panic
//! condition is armed through a process-global: [`arm_parser_panics`] /
//! [`disarm_parser_panics`]. Tests that arm it should disarm on exit.

use std::sync::atomic::{AtomicU64, Ordering};

use retina_protocols::parser::{ConnParser, Direction, ParseResult, ProbeResult};
use retina_protocols::Session;

/// 0 = disarmed; otherwise panic on `content_hash % modulus == 0`.
static PANIC_MODULUS: AtomicU64 = AtomicU64::new(0);

/// Arms injected parser panics: any [`ChaosParser`] panics on data
/// whose content hash is `0 (mod modulus)`. `modulus` is clamped to at
/// least 2 (1 would panic on everything, including the probes that
/// reject the stream).
pub fn arm_parser_panics(modulus: u64) {
    PANIC_MODULUS.store(modulus.max(2), Ordering::SeqCst);
}

/// Disarms injected parser panics.
pub fn disarm_parser_panics() {
    PANIC_MODULUS.store(0, Ordering::SeqCst);
}

/// Serialises the unit tests that flip the process-global arm switch
/// (the default test harness runs them on parallel threads): each holds
/// the returned guard for its whole body.
#[cfg(test)]
pub(crate) fn lock_arm_switch_for_test() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding the lock must not fail the other.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Currently armed modulus, if any.
pub fn armed_modulus() -> Option<u64> {
    match PANIC_MODULUS.load(Ordering::SeqCst) {
        0 => None,
        m => Some(m),
    }
}

/// FNV-1a over the payload: cheap, stable, and endian-free, so the
/// panic decision depends only on bytes on the wire.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deliberately unreliable protocol parser. Registry factory:
/// [`chaos_parser_factory`].
///
/// Behavior per payload hash `r = content_hash(data) % modulus`:
/// * `r == 0` — panic (the injected fault),
/// * `r == 1` on probe — claim the stream (`Certain`), so some
///   connections reach the parse path,
/// * otherwise — `NotForUs` / `Error` (a well-behaved rejection).
///
/// Disarmed, it never claims or panics.
#[derive(Debug, Default)]
pub struct ChaosParser;

impl ConnParser for ChaosParser {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn probe(&self, data: &[u8], _dir: Direction) -> ProbeResult {
        let Some(modulus) = armed_modulus() else {
            return ProbeResult::NotForUs;
        };
        match content_hash(data) % modulus {
            0 => panic!("injected chaos parser panic (probe)"),
            1 => ProbeResult::Certain,
            _ => ProbeResult::NotForUs,
        }
    }

    fn parse(&mut self, data: &[u8], _dir: Direction, _sessions: &mut Vec<Session>) -> ParseResult {
        let Some(modulus) = armed_modulus() else {
            return ParseResult::Error;
        };
        if content_hash(data).is_multiple_of(modulus) {
            panic!("injected chaos parser panic (parse)");
        }
        ParseResult::Error
    }

    fn drain_sessions(&mut self, _sessions: &mut Vec<Session>) {}

    fn reset(&mut self) -> usize {
        // Stateless: every decision is a function of the bytes alone.
        0
    }
}

/// Registry factory for [`ChaosParser`] (a plain `fn`, as
/// `ParserRegistry::register` requires).
pub fn chaos_parser_factory() -> Box<dyn ConnParser> {
    Box::new(ChaosParser)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test drives both the disarmed and armed states: the arming
    // switch is process-global, so separate #[test] functions would
    // race each other under the parallel test harness.
    #[test]
    fn arming_switch_controls_panics() {
        let _switch = lock_arm_switch_for_test();
        disarm_parser_panics();
        let (mut p, mut sessions) = (ChaosParser, Vec::new());
        assert_eq!(
            p.probe(b"anything", Direction::ToServer),
            ProbeResult::NotForUs
        );
        assert_eq!(
            p.parse(b"anything", Direction::ToServer, &mut sessions),
            ParseResult::Error
        );
        p.drain_sessions(&mut sessions);
        assert!(sessions.is_empty());

        arm_parser_panics(4);
        // Find one payload per residue class.
        let mut by_class: [Option<u8>; 4] = [None; 4];
        for b in 0u8..=255 {
            by_class[(content_hash(&[b]) % 4) as usize].get_or_insert(b);
        }
        let panicking = by_class[0].expect("some byte hashes to class 0");
        let claiming = by_class[1].expect("some byte hashes to class 1");
        let p = ChaosParser;
        let caught = std::panic::catch_unwind(|| p.probe(&[panicking], Direction::ToServer));
        assert!(caught.is_err(), "class-0 content must panic");
        assert_eq!(
            p.probe(&[claiming], Direction::ToServer),
            ProbeResult::Certain
        );
        // Same content, same decision — every time.
        assert_eq!(
            p.probe(&[claiming], Direction::ToClient),
            ProbeResult::Certain
        );
        disarm_parser_panics();
    }

    #[test]
    fn hash_is_stable() {
        assert_eq!(content_hash(b"retina"), content_hash(b"retina"));
        assert_ne!(content_hash(b"retina"), content_hash(b"retinb"));
        assert_eq!(content_hash(b""), 0xCBF2_9CE4_8422_2325);
    }
}
