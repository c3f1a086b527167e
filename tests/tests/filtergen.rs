//! The `retina-filtergen` macros check filter text at compile time and
//! build the same `CompiledFilter` the runtime builds from text. Every
//! layer's verdicts must equal `CompiledFilter::build` / `build_union` on
//! the same source, the decoded source must be the text rustc decodes,
//! and the macro-built filters must drive `Runtime`, `MultiRuntime` and
//! offline mode.

use retina_core::FilterFns;
use retina_filter::{CompiledFilter, ProtocolRegistry, SessionData};
use retina_filtergen::filter;
use retina_nic::DeviceCaps;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_wire::ParsedPacket;

filter!(f_ipv4, "ipv4");
filter!(f_port443, "tcp.port = 443");
filter!(
    f_port_range,
    "ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix'"
);
filter!(
    f_figure3,
    "(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http"
);
filter!(f_cipher, r"tls.cipher ~ 'AES_128_GCM'");
filter!(f_dns, "dns");
filter!(f_cidr, "ipv4.addr in 171.64.0.0/14 and udp");
filter!(f_ttl, "ipv4.ttl > 64");
filter!(f_match_all, "");
filter!(
    f_netflix_long,
    "ipv4.addr in 23.246.0.0/18 or ipv4.addr in 37.77.184.0/21 or \
     ipv6.addr in 2620:10c:7000::/44 or tls.sni ~ 'netflix.com' or \
     tls.sni ~ 'nflxvideo.net' or tls.sni ~ 'nflximg.net'"
);
filter!(f_com, "tls.sni matches '\\.com$'");
// `\x2e` and `\u{2e}` are `.`, as rustc reads them.
filter!(
    f_escaped,
    "tls.sni ~ 'netflix\x2ecom' or tls.sni ~ '\u{2e}org$'"
);

fn build(src: &str) -> CompiledFilter {
    CompiledFilter::build(src, &ProtocolRegistry::default()).unwrap()
}

struct FakeTls {
    sni: &'static str,
    cipher: &'static str,
}

impl SessionData for FakeTls {
    fn protocol(&self) -> &str {
        "tls"
    }
    fn field(&self, name: &str) -> Option<retina_filter::FieldValue<'_>> {
        match name {
            "sni" => Some(retina_filter::FieldValue::Str(self.sni)),
            "cipher" => Some(retina_filter::FieldValue::Str(self.cipher)),
            "version" => Some(retina_filter::FieldValue::Int(771)),
            _ => None,
        }
    }
}

const SESSIONS: [FakeTls; 4] = [
    FakeTls {
        sni: "www.netflix.com",
        cipher: "TLS_AES_128_GCM_SHA256",
    },
    FakeTls {
        sni: "example.org",
        cipher: "TLS_AES_256_GCM_SHA384",
    },
    FakeTls {
        sni: "netflix.co.uk",
        cipher: "",
    },
    FakeTls {
        sni: "",
        cipher: "",
    },
];

/// The first `n` parseable frames of a seeded campus mix.
fn campus(seed: u64, n: usize) -> Vec<ParsedPacket> {
    generate(&CampusConfig::small(seed))
        .iter()
        .take(n)
        .filter_map(|(frame, _)| ParsedPacket::parse(frame).ok())
        .collect()
}

/// `a` and `b` agree on metadata and, for every packet, on the packet
/// verdict (frontiers included), the connection verdict per service and
/// the session verdict per session. Returns how many packets some
/// subscription survived.
fn assert_same_filter(a: &dyn FilterFns, b: &CompiledFilter, packets: &[ParsedPacket]) -> usize {
    let what = b.source();
    assert_eq!(a.source(), what);
    assert_eq!(a.num_subscriptions(), b.num_subscriptions(), "{what}");
    assert_eq!(a.conn_protocols(), b.conn_protocols(), "{what}");
    assert_eq!(a.needs_conn_layer(), b.needs_conn_layer(), "{what}");
    assert_eq!(a.needs_session_layer(), b.needs_session_layer(), "{what}");
    let mut survived = 0;
    for pkt in packets {
        let v = a.packet_filter_set(pkt);
        assert_eq!(v, b.packet_filter_set(pkt), "{what}: packet on {pkt:?}");
        if v.is_no_match() {
            continue;
        }
        survived += 1;
        for service in [Some("tls"), Some("http"), Some("dns"), Some("ssh"), None] {
            let cv = a.conn_filter_set(service, &v.frontiers, v.live);
            assert_eq!(
                cv,
                b.conn_filter_set(service, &v.frontiers, v.live),
                "{what}: conn ({service:?})"
            );
            for s in &SESSIONS {
                assert_eq!(
                    a.session_filter_set(s, &v.frontiers, cv.live),
                    b.session_filter_set(s, &v.frontiers, cv.live),
                    "{what}: session (sni {:?})",
                    s.sni
                );
            }
        }
    }
    survived
}

#[test]
fn filter_macro_matches_build_packet_and_conn() {
    let packets = campus(0xD1FF, 30_000);
    let cases: [(CompiledFilter, &str); 11] = [
        (f_ipv4(), "ipv4"),
        (f_port443(), "tcp.port = 443"),
        (
            f_port_range(),
            "ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix'",
        ),
        (
            f_figure3(),
            "(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http",
        ),
        (f_cipher(), r"tls.cipher ~ 'AES_128_GCM'"),
        (f_dns(), "dns"),
        (f_cidr(), "ipv4.addr in 171.64.0.0/14 and udp"),
        (f_ttl(), "ipv4.ttl > 64"),
        (f_match_all(), ""),
        (
            f_netflix_long(),
            "ipv4.addr in 23.246.0.0/18 or ipv4.addr in 37.77.184.0/21 or \
             ipv6.addr in 2620:10c:7000::/44 or tls.sni ~ 'netflix.com' or \
             tls.sni ~ 'nflxvideo.net' or tls.sni ~ 'nflximg.net'",
        ),
        (
            f_escaped(),
            "tls.sni ~ 'netflix\x2ecom' or tls.sni ~ '\u{2e}org$'",
        ),
    ];
    for (macro_built, src) in &cases {
        assert_same_filter(macro_built, &build(src), &packets);
    }
    assert_eq!(
        f_escaped().source(),
        "tls.sni ~ 'netflix.com' or tls.sni ~ '.org$'"
    );
}

#[test]
fn filter_macro_matches_build_session_filter() {
    // A TLS frontier, then each session through the session layer.
    let frame = retina_wire::build::build_tcp(&retina_wire::build::TcpSpec {
        src: "10.0.0.1:50000".parse().unwrap(),
        dst: "1.1.1.1:443".parse().unwrap(),
        seq: 1,
        ack: 0,
        flags: retina_wire::TcpFlags::SYN,
        window: 64,
        ttl: 64,
        payload: b"",
    });
    let pkt = ParsedPacket::parse(&frame).unwrap();
    for (f, passes) in [
        (f_figure3(), [true, false, true, false]),
        (f_com(), [true, false, false, false]),
        (f_cipher(), [true, false, false, false]),
        (f_escaped(), [true, true, false, false]),
    ] {
        let v = f.packet_filter_set(&pkt);
        assert!(v.live.contains(0), "{}: {v:?}", f.source());
        let cv = f.conn_filter_set(Some("tls"), &v.frontiers, v.live);
        for (s, want) in SESSIONS.iter().zip(passes) {
            assert_eq!(
                f.session_filter_set(s, &v.frontiers, cv.live).contains(0),
                want,
                "{}: sni {:?}",
                f.source(),
                s.sni
            );
        }
        assert_same_filter(&f, &build(f.source()), std::slice::from_ref(&pkt));
    }
}

#[test]
fn static_filter_runs_in_runtime() {
    // A macro-declared filter drives the full multi-core runtime.
    use retina_core::subscribables::TlsHandshakeData;
    use retina_core::{Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let wl = retina_trafficgen::HttpsWorkload {
        requests_per_sec: 50,
        response_bytes: 8192,
        duration_secs: 0.5,
        ..Default::default()
    };
    let count = Arc::new(AtomicUsize::new(0));
    let count2 = Arc::clone(&count);
    filter!(nginx, "tls.sni ~ 'nginx'");
    let mut rt =
        Runtime::<TlsHandshakeData, _>::new(RuntimeConfig::with_cores(2), nginx(), move |_hs| {
            count2.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
    let report = rt.run(wl.source());
    assert_eq!(count.load(Ordering::Relaxed), 25);
    assert!(report.zero_loss());
}

#[test]
fn offline_mode_agrees_between_macro_and_build() {
    // Same subscription, same traffic, one run per construction path:
    // identical callback counts.
    use retina_core::offline::run_offline;
    use retina_core::subscribables::SessionRecord;
    use std::sync::Arc;

    let packets = generate(&CampusConfig::small(0xABCD));
    filter!(com_or_http, "tls.sni ~ '\\.com$' or http");

    let mut count = [0usize; 2];
    for (i, filter) in [com_or_http(), build("tls.sni ~ '\\.com$' or http")]
        .into_iter()
        .enumerate()
    {
        run_offline::<SessionRecord, _>(
            &Arc::new(filter),
            &retina_core::RuntimeConfig::default(),
            packets.clone(),
            |_| count[i] += 1,
        );
    }
    assert_eq!(count[0], count[1]);
    assert!(count[0] > 0);
}

retina_filtergen::filter_union!(tls_http_dns, "tls", "http", "dns");

#[test]
fn filter_union_agrees_with_interpreted_union() {
    let runtime_built =
        CompiledFilter::build_union(&["tls", "http", "dns"], &ProtocolRegistry::default()).unwrap();
    assert_eq!(tls_http_dns().num_subscriptions(), 3);
    let survived = assert_same_filter(&tls_http_dns(), &runtime_built, &campus(0x7E57, 30_000));
    assert!(survived > 0, "workload should exercise the union");
}

#[test]
fn filter_union_drives_multi_runtime() {
    // The macro-built union powers a MultiRuntime with one typed
    // subscription per source.
    use retina_core::subscribables::{ConnRecord, TlsHandshakeData};
    use retina_core::{MultiRuntime, RuntimeConfig, TypedSubscription};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let wl = retina_trafficgen::HttpsWorkload {
        requests_per_sec: 50,
        response_bytes: 4096,
        duration_secs: 0.5,
        ..Default::default()
    };
    let tls_seen = Arc::new(AtomicUsize::new(0));
    let conn_seen = Arc::new(AtomicUsize::new(0));
    let t2 = Arc::clone(&tls_seen);
    let c2 = Arc::clone(&conn_seen);
    retina_filtergen::filter_union!(tls_and_all, "tls", "",);
    let subs: Vec<Arc<dyn retina_core::ErasedSubscription>> = vec![
        Arc::new(TypedSubscription::<TlsHandshakeData>::new(
            "tls",
            move |_| {
                t2.fetch_add(1, Ordering::Relaxed);
            },
        )),
        Arc::new(TypedSubscription::<ConnRecord>::new(
            "all_conns",
            move |_| {
                c2.fetch_add(1, Ordering::Relaxed);
            },
        )),
    ];
    let mut rt = MultiRuntime::new(RuntimeConfig::with_cores(2), tls_and_all(), subs).unwrap();
    let report = rt.run(wl.source());
    assert_eq!(tls_seen.load(Ordering::Relaxed), 25);
    assert!(conn_seen.load(Ordering::Relaxed) >= 25);
    assert!(report.zero_loss());
    assert_eq!(report.subs.len(), 2);
    assert_eq!(report.subs[0].delivered, 25);
}

// --- live-swap differential: both sides of a reconfiguration ---------
//
// A live swap compiles its new subscription set through
// `CompiledFilter::build_union` at runtime, while ahead-of-time users
// declare the same set with `filter_union!`. Both must agree on *every*
// layer a swap touches: the packet verdict sets, the connection
// verdicts, the session verdicts, and the hardware rule union whose diff
// the swap pushes to the NIC.
retina_filtergen::filter_union!(
    swap_old_union,
    "ipv4 and tcp",
    "ipv4 and tcp.port = 443",
    "tls.sni ~ 'netflix'"
);
retina_filtergen::filter_union!(swap_new_union, "ipv4 and tcp", "udp", "tls.sni ~ 'netflix'");

#[test]
fn swap_unions_agree_on_all_four_layers() {
    use retina_support::rand::{RngExt, SeedableRng, SmallRng};
    use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};

    const OLD: [&str; 3] = [
        "ipv4 and tcp",
        "ipv4 and tcp.port = 443",
        "tls.sni ~ 'netflix'",
    ];
    const NEW: [&str; 3] = ["ipv4 and tcp", "udp", "tls.sni ~ 'netflix'"];
    let registry = ProtocolRegistry::default();
    let cases = [
        (
            swap_old_union(),
            CompiledFilter::build_union(&OLD, &registry).unwrap(),
        ),
        (
            swap_new_union(),
            CompiledFilter::build_union(&NEW, &registry).unwrap(),
        ),
    ];

    // Seeded frames biased to the decision boundaries: ports hugging
    // 443, TCP vs UDP — the exact edges a swap's rule diff pivots on —
    // plus a campus slice for breadth.
    let mut rng = SmallRng::seed_from_u64(0x5F4B);
    let mut packets: Vec<ParsedPacket> = Vec::new();
    for _ in 0..400 {
        let sport: u16 = rng.random_range(40_000u16..60_000);
        let dport: u16 = [80u16, 442, 443, 444, 8443, 53][rng.random_range(0usize..6)];
        let src: std::net::SocketAddr = format!("10.1.{}.{}:{sport}", rng.random_range(0u32..4), 1)
            .parse()
            .unwrap();
        let dst: std::net::SocketAddr = format!("192.0.2.7:{dport}").parse().unwrap();
        let frame = if rng.random_range(0u32..3) == 0 {
            build_udp(&UdpSpec {
                src,
                dst,
                ttl: 64,
                payload: b"q",
            })
        } else {
            build_tcp(&TcpSpec {
                src,
                dst,
                seq: 1,
                ack: 0,
                flags: retina_wire::TcpFlags::SYN,
                window: 4096,
                ttl: 64,
                payload: b"",
            })
        };
        packets.push(ParsedPacket::parse(&frame).unwrap());
    }
    packets.extend(campus(0x5F4C, 4_000));

    // Layers 1-3.
    for (macro_built, runtime_built) in &cases {
        let survived = assert_same_filter(macro_built, runtime_built, &packets);
        assert!(survived > 0, "boundary frames never exercised the union");
    }

    // Layer 4: hardware rule unions, and so the swap's own rule diff
    // (adds = new \ old, removes = old \ new).
    let rules = |f: &CompiledFilter, caps| format!("{:?}", f.hw_rules(caps, &registry).unwrap());
    for caps in [
        DeviceCaps::connectx5(),
        DeviceCaps::basic(),
        DeviceCaps::full(),
    ] {
        for (macro_built, runtime_built) in &cases {
            assert_eq!(
                rules(macro_built, caps),
                rules(runtime_built, caps),
                "hardware rule unions diverge under {caps:?}"
            );
        }
    }
    let caps = DeviceCaps::connectx5();
    let old_rules = cases[0].0.hw_rules(caps, &registry).unwrap();
    let new_rules = cases[1].0.hw_rules(caps, &registry).unwrap();
    assert!(
        new_rules.iter().any(|r| !old_rules.contains(r))
            || old_rules.iter().any(|r| !new_rules.contains(r)),
        "removing the 443 filter and adding udp must change the rule union"
    );
}
