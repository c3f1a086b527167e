//! End-to-end tests for the filter semantic analyzer
//! (`retina_filter::analysis`).
//!
//! Two properties are established here:
//!
//! 1. **Pruning is semantics-preserving.** The analyzer's dead-branch
//!    elimination feeds into `PredicateTrie::from_sources`; the
//!    differential proptests below compare that optimized trie against
//!    `PredicateTrie::from_sources_naive` (no analyzer pruning, no shadow
//!    clearing) on random filters, random unions, and random packets —
//!    across all four filter layers: synthesized hardware rules, the
//!    software packet filter, the connection filter, and the session
//!    filter. Verdicts are compared through the node-id-independent
//!    `*_set` API (subscription bitsets), since pruning renumbers trie
//!    nodes but must never change which subscriptions match.
//!
//! 2. **Diagnostics surface uniformly.** The same E-code that makes
//!    `filter!("tcp and udp")` fail to compile rejects the filter at
//!    `RuntimeBuilder::build`, and W-code warnings recorded at build time
//!    ride along in every `RunReport`.

// Narrowing casts in this file are intentional: test and bench harnesses narrow seeded draws and counter math to compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::sync::OnceLock;

use retina_core::{FilterFns, RuntimeBuilder, RuntimeConfig, RuntimeError};
use retina_filter::registry::ProtocolRegistry;
use retina_filter::trie::PredicateTrie;
use retina_filter::{analyze_union, CompiledFilter, FieldValue, SessionData};
use retina_nic::flow::DeviceCaps;
use retina_support::bytes::Bytes;
use retina_support::proptest::prelude::*;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
use retina_wire::{ParsedPacket, TcpFlags};

// ---------------------------------------------------------------------
// Random inputs
// ---------------------------------------------------------------------

/// Predicate atoms the random-filter generator draws from. Spread across
/// all layers (ethernet/network unaries, transport fields, session
/// predicates) and deliberately overlapping, so random conjunctions hit
/// every analyzer path: unsatisfiable chains (`tcp and udp`), empty
/// intervals, subsumed disjuncts, and redundant unaries.
const ATOMS: &[&str] = &[
    "ipv4",
    "ipv6",
    "tcp",
    "udp",
    "tls",
    "http",
    "dns",
    "tcp.port = 443",
    "tcp.port = 80",
    "tcp.src_port >= 100",
    "tcp.dst_port < 1024",
    "tcp.port in 440..450",
    "udp.port = 53",
    "ipv4.ttl > 64",
    "ipv4.addr in 171.64.0.0/14",
    "ipv4.src_addr in 10.0.0.0/8",
    "tls.sni ~ 'netflix'",
    "tls.sni ~ 'googlevideo'",
    "tls.version = 771",
];

/// Builds a random filter: 1–3 disjuncts of 1–3 atoms each. Many of the
/// results are partially or wholly unsatisfiable on purpose.
fn random_filter(rng: &mut SmallRng) -> String {
    let disjuncts = 1 + rng.next_u64() as usize % 3;
    (0..disjuncts)
        .map(|_| {
            let n = 1 + rng.next_u64() as usize % 3;
            let conj = (0..n)
                .map(|_| ATOMS[rng.next_u64() as usize % ATOMS.len()])
                .collect::<Vec<_>>()
                .join(" and ");
            format!("({conj})")
        })
        .collect::<Vec<_>>()
        .join(" or ")
}

/// Ports the generator favors: every boundary the atom pool mentions,
/// plus a fully random tail.
const PORTS: &[u16] = &[443, 80, 53, 99, 100, 439, 440, 450, 451, 1023, 1024];

fn random_port(rng: &mut SmallRng) -> u16 {
    if rng.next_u64().is_multiple_of(2) {
        PORTS[rng.next_u64() as usize % PORTS.len()]
    } else {
        rng.next_u64() as u16
    }
}

fn random_addr(rng: &mut SmallRng, v6: bool) -> String {
    if v6 {
        return format!("[2001:db8::{:x}]", rng.next_u64() % 0xffff);
    }
    match rng.next_u64() % 3 {
        // Inside the CIDR atoms.
        0 => format!("171.{}.0.{}", 64 + rng.next_u64() % 4, rng.next_u64() % 255),
        1 => format!("10.{}.0.{}", rng.next_u64() % 255, rng.next_u64() % 255),
        // Outside them.
        _ => format!("192.168.{}.{}", rng.next_u64() % 255, rng.next_u64() % 255),
    }
}

/// Builds a batch of random frames: TCP and UDP, v4 and v6, with ports
/// biased toward the atom boundaries and varying TTLs.
fn random_frames(rng: &mut SmallRng, n: usize) -> Vec<Bytes> {
    (0..n)
        .map(|_| {
            let v6 = rng.next_u64().is_multiple_of(4);
            let src = format!("{}:{}", random_addr(rng, v6), random_port(rng));
            let dst = format!("{}:{}", random_addr(rng, v6), random_port(rng));
            let ttl = if rng.next_u64().is_multiple_of(2) {
                64
            } else {
                65
            };
            let frame = if rng.next_u64().is_multiple_of(3) {
                build_udp(&UdpSpec {
                    src: src.parse().unwrap(),
                    dst: dst.parse().unwrap(),
                    ttl,
                    payload: b"x",
                })
            } else {
                build_tcp(&TcpSpec {
                    src: src.parse().unwrap(),
                    dst: dst.parse().unwrap(),
                    seq: 1,
                    ack: 0,
                    flags: TcpFlags::SYN,
                    window: 64,
                    ttl,
                    payload: b"",
                })
            };
            Bytes::from(frame)
        })
        .collect()
}

/// A shared slice of realistic campus traffic (generated once): the
/// random synthetic frames cover the corners, this covers the mix.
fn campus_frames() -> &'static [(Bytes, u64)] {
    static FRAMES: OnceLock<Vec<(Bytes, u64)>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        generate(&CampusConfig::small(0xA11A))
            .into_iter()
            .step_by(13)
            .take(1_500)
            .collect()
    })
}

struct Tls(&'static str);
impl SessionData for Tls {
    fn protocol(&self) -> &str {
        "tls"
    }
    fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match name {
            "sni" => Some(FieldValue::Str(self.0)),
            "version" => Some(FieldValue::Int(771)),
            _ => None,
        }
    }
}

struct Http;
impl SessionData for Http {
    fn protocol(&self) -> &str {
        "http"
    }
    fn field(&self, _: &str) -> Option<FieldValue<'_>> {
        None
    }
}

const SESSIONS: &[&dyn SessionData] = &[
    &Tls("video.netflix.com"),
    &Tls("r4.googlevideo.com"),
    &Tls("example.org"),
    &Http,
];

const SERVICES: &[Option<&str>] = &[Some("tls"), Some("http"), Some("dns"), Some("ssh"), None];

// ---------------------------------------------------------------------
// The differential core
// ---------------------------------------------------------------------

/// Asserts the optimized (analyzer-pruned) and naive tries for `srcs`
/// produce identical verdicts on every frame, at all four layers.
fn assert_equivalent(srcs: &[&str], frames: &[Bytes]) {
    let registry = ProtocolRegistry::default();
    let Ok(pruned) = PredicateTrie::from_sources(srcs, &registry) else {
        // Wholly-unsatisfiable (or otherwise invalid) filters must be
        // rejected identically by both builds.
        assert!(
            PredicateTrie::from_sources_naive(srcs, &registry).is_err(),
            "{srcs:?}: optimized build failed but naive build succeeded"
        );
        return;
    };
    let naive = PredicateTrie::from_sources_naive(srcs, &registry)
        .expect("naive build must succeed when the optimized build does");
    // Pruning can only shrink the trie.
    assert!(
        pruned.len() <= naive.len(),
        "{srcs:?}: pruned trie larger than naive"
    );

    // Layer 1: hardware. Rule sets may differ structurally (a pruned
    // branch's widened rule disappears), but the *acceptance* of the
    // installed set — empty means accept-all — must be identical for
    // every capability profile.
    for caps in [
        DeviceCaps::basic(),
        DeviceCaps::connectx5(),
        DeviceCaps::full(),
    ] {
        let rp = retina_filter::hw::synthesize(&pruned, caps);
        let rn = retina_filter::hw::synthesize(&naive, caps);
        for frame in frames {
            let Ok(pkt) = ParsedPacket::parse(frame) else {
                continue;
            };
            let ap = rp.is_empty() || rp.iter().any(|r| r.matches(&pkt));
            let an = rn.is_empty() || rn.iter().any(|r| r.matches(&pkt));
            assert_eq!(ap, an, "{srcs:?}: hw acceptance diverges on {pkt:?}");
        }
    }

    let fp = CompiledFilter::from_trie(pruned).expect("compile pruned");
    let fnv = CompiledFilter::from_trie(naive).expect("compile naive");

    for frame in frames {
        let Ok(pkt) = ParsedPacket::parse(frame) else {
            continue;
        };

        // Layer 2: software packet filter. Per-subscription bitsets must
        // agree (frontier node *ids* legitimately differ — pruning
        // renumbers the arena).
        let pv_p = fp.packet_filter_set(&pkt);
        let pv_n = fnv.packet_filter_set(&pkt);
        assert_eq!(pv_p.matched, pv_n.matched, "{srcs:?}: matched on {pkt:?}");
        assert_eq!(pv_p.live, pv_n.live, "{srcs:?}: live on {pkt:?}");

        if pv_p.live.is_empty() {
            continue;
        }
        // Layer 3: connection filter, each side using its own frontiers.
        for &service in SERVICES {
            let cv_p = fp.conn_filter_set(service, &pv_p.frontiers, pv_p.live);
            let cv_n = fnv.conn_filter_set(service, &pv_n.frontiers, pv_n.live);
            assert_eq!(
                cv_p.matched, cv_n.matched,
                "{srcs:?}: conn matched ({service:?}) on {pkt:?}"
            );
            assert_eq!(
                cv_p.live, cv_n.live,
                "{srcs:?}: conn live ({service:?}) on {pkt:?}"
            );

            // Layer 4: session filter for the subscriptions still live.
            if cv_p.live.is_empty() {
                continue;
            }
            for session in SESSIONS {
                let pass_p = fp.session_filter_set(*session, &pv_p.frontiers, cv_p.live);
                let pass_n = fnv.session_filter_set(*session, &pv_n.frontiers, cv_n.live);
                assert_eq!(
                    pass_p,
                    pass_n,
                    "{srcs:?}: session ({}) on {pkt:?}",
                    session.protocol()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential proptest (acceptance criterion): for random single
    /// filters and random packets, the analyzer-pruned trie and the naive
    /// trie agree at every layer.
    #[test]
    fn pruned_trie_preserves_semantics_single(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src = random_filter(&mut rng);
        let frames = random_frames(&mut rng, 48);
        assert_equivalent(&[src.as_str()], &frames);
    }

    /// Same property for random unions of 2–4 subscription filters,
    /// where cross-subscription sharing must not leak pruning across
    /// subscription boundaries.
    #[test]
    fn pruned_trie_preserves_semantics_union(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 2 + rng.next_u64() as usize % 3;
        let srcs: Vec<String> = (0..n).map(|_| random_filter(&mut rng)).collect();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let frames = random_frames(&mut rng, 32);
        assert_equivalent(&refs, &frames);
    }
}

/// The fixed differential on realistic traffic: filters known to trigger
/// the analyzer (dead disjuncts, subsumed unions) against the campus mix.
#[test]
fn pruned_trie_preserves_semantics_campus() {
    let frames: Vec<Bytes> = campus_frames().iter().map(|(b, _)| b.clone()).collect();
    for srcs in [
        vec!["tcp or tls"],
        vec!["ipv4 or (ipv4 and tcp)"],
        vec!["ipv4 or (ipv4.ttl > 64 and tcp)"],
        vec!["(ipv4 and ipv6) or tcp"],
        vec!["tcp or tcp"],
        vec!["(tls.sni ~ 'netflix' and tcp) or tcp or dns"],
        vec!["tcp", "tls"],
        vec!["tls", "tls"],
        vec!["tcp.port = 443", "tcp or tls", "http"],
    ] {
        assert_equivalent(&srcs, &frames);
    }
}

// ---------------------------------------------------------------------
// Union edge cases: diagnostics AND unchanged runtime verdicts
// ---------------------------------------------------------------------

/// Per-subscription verdicts of `union` must equal each filter's solo
/// verdicts on the campus mix (the diagnostics are advisory, never
/// behavior-changing).
fn assert_union_matches_solo(srcs: &[&str]) {
    let registry = ProtocolRegistry::default();
    let union = CompiledFilter::build_union(srcs, &registry).unwrap();
    let solos: Vec<CompiledFilter> = srcs
        .iter()
        .map(|s| CompiledFilter::build(s, &registry).unwrap())
        .collect();
    for (frame, _) in campus_frames() {
        let Ok(pkt) = ParsedPacket::parse(frame) else {
            continue;
        };
        let v = union.packet_filter_set(&pkt);
        for (i, solo) in solos.iter().enumerate() {
            let r = solo.packet_filter_set(&pkt);
            assert_eq!(
                v.matched.contains(i),
                r.matched.contains(0),
                "sub {i} ({}) terminal on {pkt:?}",
                srcs[i]
            );
            assert_eq!(
                v.live.contains(i),
                r.live.contains(0),
                "sub {i} ({}) live on {pkt:?}",
                srcs[i]
            );
        }
    }
}

#[test]
fn empty_union_is_clean_but_unbuildable() {
    // The analyzer accepts an empty union (nothing to diagnose) …
    let a = analyze_union(&[], &ProtocolRegistry::default(), None).unwrap();
    assert!(a.diagnostics.is_empty());
    // … but a runtime cannot be built from zero subscriptions.
    assert!(CompiledFilter::build_union(&[], &ProtocolRegistry::default()).is_err());
    assert!(matches!(
        RuntimeBuilder::new(RuntimeConfig::default()).build(),
        Err(RuntimeError::Subscriptions(_))
    ));
}

#[test]
fn single_subscription_union_is_clean() {
    let a = analyze_union(&["tls"], &ProtocolRegistry::default(), None).unwrap();
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert_union_matches_solo(&["tls"]);
}

#[test]
fn duplicate_subscriptions_warn_and_keep_verdicts() {
    let srcs = ["tcp.port = 443", "tcp.port = 443"];
    let a = analyze_union(&srcs, &ProtocolRegistry::default(), None).unwrap();
    let d = a.with_code("W004").next().expect("duplicate must warn");
    assert_eq!(d.sub, 1);
    assert!(!a.has_errors());
    // Both subscriptions still get full, independent verdicts.
    assert_union_matches_solo(&srcs);
}

#[test]
fn subsumed_subscription_warns_and_keeps_verdicts() {
    // Every tls connection is a tcp connection: sub 1 ⊆ sub 0.
    let srcs = ["tcp", "tls"];
    let a = analyze_union(&srcs, &ProtocolRegistry::default(), None).unwrap();
    let d = a.with_code("W005").next().expect("containment must warn");
    assert_eq!(d.sub, 1);
    assert!(!a.has_errors());
    // The contained subscription must still match only its own traffic.
    assert_union_matches_solo(&srcs);
}

// ---------------------------------------------------------------------
// RuntimeBuilder + RunReport surfacing
// ---------------------------------------------------------------------

#[test]
fn runtime_builder_rejects_unsatisfiable_filter_with_e_code() {
    use retina_core::subscribables::ConnRecord;
    // The exact filter the README shows failing at compile time via
    // `filter!` — the interpreted path must reject it with the same
    // E-codes (E001: impossible chain, E004: nothing can match).
    let Err(err) = RuntimeBuilder::new(RuntimeConfig::default())
        .subscribe::<ConnRecord>("tcp and udp", |_| {})
        .build()
    else {
        panic!("unsatisfiable filter must not build");
    };
    let RuntimeError::Filter(msg) = err else {
        panic!("expected RuntimeError::Filter, got {err:?}");
    };
    assert!(msg.contains("E001"), "missing E001 in: {msg}");
    assert!(msg.contains("E004"), "missing E004 in: {msg}");
}

#[test]
fn runtime_builder_rejects_contradictory_ports() {
    use retina_core::subscribables::ConnRecord;
    let Err(err) = RuntimeBuilder::new(RuntimeConfig::default())
        .subscribe::<ConnRecord>("tcp.src_port > 100 and tcp.src_port < 50", |_| {})
        .build()
    else {
        panic!("contradictory filter must not build");
    };
    let RuntimeError::Filter(msg) = err else {
        panic!("expected RuntimeError::Filter, got {err:?}");
    };
    assert!(msg.contains("E002"), "missing E002 in: {msg}");
}

#[test]
fn run_report_carries_filter_warnings() {
    use retina_core::subscribables::ConnRecord;
    use retina_trafficgen::PreloadedSource;

    let packets: Vec<(Bytes, u64)> = campus_frames().to_vec();
    // "tcp or tls" has a dead disjunct (W001); the builder must accept it
    // and surface the warning in the report.
    let mut rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
        .subscribe::<ConnRecord>("tcp or tls", |_| {})
        .build()
        .unwrap();
    assert!(
        rt.filter_warnings().iter().any(|w| w.starts_with("W001")),
        "{:?}",
        rt.filter_warnings()
    );
    let report = rt.run(PreloadedSource::new(packets));
    assert!(
        report.filter_warnings.iter().any(|w| w.starts_with("W001")),
        "{:?}",
        report.filter_warnings
    );
}

#[test]
fn clean_filters_build_without_warnings() {
    use retina_core::subscribables::TlsHandshakeData;
    let rt = RuntimeBuilder::new(RuntimeConfig::default())
        .subscribe::<TlsHandshakeData>("tls", |_| {})
        .build()
        .unwrap();
    assert!(
        rt.filter_warnings().is_empty(),
        "{:?}",
        rt.filter_warnings()
    );
}

// ---------------------------------------------------------------------
// The CI filter corpus must stay clean
// ---------------------------------------------------------------------

/// Every filter in `scripts/filters.flt` (the corpus `retina-flint`
/// lints in CI) must be free of E-code diagnostics — the same invariant
/// `scripts/ci.sh lint-filters` enforces, checked here so `cargo test`
/// alone catches a bad corpus edit.
#[test]
fn ci_filter_corpus_is_error_free() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../scripts/filters.flt");
    let text = std::fs::read_to_string(path).expect("scripts/filters.flt");
    let registry = ProtocolRegistry::default();
    for (n, line) in text.lines().enumerate() {
        let filter = line.trim();
        if filter.is_empty() || filter.starts_with('#') {
            continue;
        }
        let a = retina_filter::analyze(filter, &registry, Some(&DeviceCaps::connectx5()))
            .unwrap_or_else(|e| panic!("filters.flt:{}: parse error: {e}", n + 1));
        assert!(
            !a.has_errors(),
            "filters.flt:{}: {filter}: {:?}",
            n + 1,
            a.diagnostics
        );
    }
}
