//! Cross-crate end-to-end tests: the full runtime over synthetic campus
//! traffic, pcap round-trips, sink sampling, timeout schemes, and
//! baseline-vs-retina agreement on analysis results.
//!
//! # Determinism
//!
//! All traffic comes from `CampusConfig::small(<seed>)` /
//! `HttpsWorkload` with the fixed per-test seeds written at each call
//! site (0xE2E, 0x5EED, ...). The generators sample exclusively from
//! `retina_support::rand::SmallRng` seeded with those values, so every
//! run replays byte-identical packet streams;
//! `generation_is_deterministic_for_fixed_seed` below pins that
//! property. Multi-core runs may interleave differently, but tests only
//! assert order-insensitive results (sorted outputs, counts, zero-loss).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use retina_core::offline::run_offline;
use retina_core::subscribables::{ConnRecord, SessionRecord, TlsHandshakeData};
use retina_core::{
    DispatchMode, RunReport, Runtime, RuntimeBuilder, RuntimeConfig, StepConfig, TraceConfig,
};
use retina_filter::compile;
use retina_support::bytes::Bytes;
use retina_support::proptest::prelude::*;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::{HttpsWorkload, PreloadedSource};

#[test]
fn generation_is_deterministic_for_fixed_seed() {
    // The seed fully determines the generated traffic: frame bytes and
    // timestamps are identical across invocations, which is what makes
    // every test in this file reproducible.
    let a = generate(&CampusConfig::small(0xE2E));
    let b = generate(&CampusConfig::small(0xE2E));
    assert_eq!(a.len(), b.len());
    for ((fa, ta), (fb, tb)) in a.iter().zip(&b) {
        assert_eq!(ta, tb);
        assert_eq!(fa.as_ref(), fb.as_ref());
    }
    // And a different seed actually changes the stream.
    let c = generate(&CampusConfig::small(0x5EED));
    assert!(
        a.len() != c.len()
            || a.iter()
                .zip(&c)
                .any(|((fa, _), (fc, _))| fa.as_ref() != fc.as_ref()),
        "distinct seeds should produce distinct traffic"
    );
}

#[test]
fn campus_mix_through_multicore_runtime() {
    let packets = generate(&CampusConfig::small(0xE2E));
    let total_packets = packets.len() as u64;
    let tls_count = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&tls_count);
    let filter = compile("tls").unwrap();
    let mut rt =
        Runtime::<TlsHandshakeData, _>::new(RuntimeConfig::with_cores(4), filter, move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
    let report = rt.run(PreloadedSource::new(packets));
    assert!(report.zero_loss(), "{:?}", report.nic);
    // Hardware filter admits only TCP for a `tls` filter.
    assert!(report.nic.hw_dropped > 0, "UDP/ICMP should be hw-dropped");
    assert!(report.nic.rx_delivered < total_packets);
    let handshakes = tls_count.load(Ordering::Relaxed);
    assert!(
        handshakes > 50,
        "expected many TLS handshakes, got {handshakes}"
    );
    assert_eq!(report.cores.callbacks.runs, handshakes);
}

#[test]
fn multicore_equals_singlecore_results() {
    // RSS distribution must not change analysis results: same handshake
    // set on 1 and 8 cores.
    let packets = generate(&CampusConfig::small(0x5EED));
    let collect = |cores: u16| {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&out);
        let filter = compile(r"tls.sni ~ '\.com$'").unwrap();
        let mut rt = Runtime::<TlsHandshakeData, _>::new(
            RuntimeConfig::with_cores(cores),
            filter,
            move |hs| o2.lock().unwrap().push(hs.tls.sni().to_string()),
        )
        .unwrap();
        let report = rt.run(PreloadedSource::new(packets.clone()));
        assert!(report.zero_loss());
        let mut v = out.lock().unwrap().clone();
        v.sort();
        v
    };
    let single = collect(1);
    let multi = collect(8);
    assert!(!single.is_empty());
    assert_eq!(single, multi);
}

/// The campus frames the stepped multi-core tests share.
fn stepped_packets() -> &'static [(Bytes, u64)] {
    static PACKETS: OnceLock<Vec<(Bytes, u64)>> = OnceLock::new();
    PACKETS.get_or_init(|| {
        generate(&CampusConfig {
            target_packets: 8_000,
            ..CampusConfig::small(0x5EED)
        })
    })
}

/// One stepped run on `cores` RX cores under schedule `seed`: `.com`
/// handshakes on a dedicated worker beside an inline TCP connection log.
/// Returns the SNIs in callback order and the (accounting-checked)
/// report.
fn stepped_snis(cores: u16, seed: u64, trace: bool) -> (Vec<String>, RunReport) {
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = Arc::clone(&out);
    let mut builder = RuntimeBuilder::new(RuntimeConfig::with_cores(cores))
        .subscribe_dispatched::<TlsHandshakeData>(
            "com",
            r"tls.sni ~ '\.com$'",
            DispatchMode::dedicated(4),
            move |hs| o2.lock().unwrap().push(hs.tls.sni().to_string()),
        )
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", |_| {});
    if trace {
        builder = builder.trace(TraceConfig {
            sample_one_in: 1,
            ..TraceConfig::default()
        });
    }
    let report = builder
        .build()
        .unwrap()
        .run_stepped(stepped_packets(), &StepConfig::seeded(seed));
    report.check_accounting().expect("accounting exact");
    let snis = std::mem::take(&mut *out.lock().unwrap());
    (snis, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `multicore_equals_singlecore_results` under seeded schedules:
    /// symmetric RSS over 1–4 stepped RX cores changes no analysis
    /// result, accounting is exact, and every (seed, cores) pair replays
    /// bit for bit.
    #[test]
    fn stepped_cores_equal_one_core(seed in any::<u64>(), cores in 1u16..=4) {
        static ONE_CORE: OnceLock<Vec<String>> = OnceLock::new();
        let one = ONE_CORE.get_or_init(|| {
            let mut snis = stepped_snis(1, 0, false).0;
            snis.sort();
            snis
        });
        let (snis, report) = stepped_snis(cores, seed, false);
        let (replay, again) = stepped_snis(cores, seed, false);
        prop_assert_eq!(&snis, &replay);
        prop_assert_eq!(report.deterministic_digest(), again.deterministic_digest());
        prop_assert_eq!(format!("{:?}", report.cores), format!("{:?}", again.cores));
        prop_assert_eq!(format!("{:?}", report.subs), format!("{:?}", again.subs));
        let mut sorted = snis;
        sorted.sort();
        prop_assert!(!one.is_empty());
        prop_assert_eq!(&sorted, one);
    }
}

/// A stepped run on two cores reads two RSS queues, one RX lane each in
/// its trace, and creates exactly the connections the one-core run does.
#[test]
fn a_two_core_stepped_run_has_two_rx_lanes() {
    let rx_lanes = |report: &RunReport| {
        let session = &report.trace.as_ref().expect("traced").session;
        let rx = session.lanes.iter().filter(|(lane, events)| {
            matches!(lane, retina_telemetry::LaneKind::Rx(_)) && !events.is_empty()
        });
        rx.count()
    };
    let (_, one) = stepped_snis(1, 5, true);
    let (_, two) = stepped_snis(2, 5, true);
    assert_eq!(rx_lanes(&one), 1);
    assert_eq!(rx_lanes(&two), 2);
    assert!(one.cores.conns_created > 0);
    assert_eq!(two.cores.conns_created, one.cores.conns_created);
}

#[test]
fn sink_sampling_reduces_delivered_traffic() {
    let packets = generate(&CampusConfig::small(0x51));
    let filter = compile("").unwrap();
    let mut rt =
        Runtime::<ConnRecord, _>::new(RuntimeConfig::with_cores(2), filter, |_| {}).unwrap();
    rt.nic().set_sink_fraction(0.5);
    let report = rt.run(PreloadedSource::new(packets));
    assert!(report.nic.sunk > 0);
    let frac = report.nic.sunk as f64 / report.nic.rx_offered as f64;
    assert!((0.2..0.8).contains(&frac), "sunk fraction {frac}");
    // Sunk traffic is intentional, not loss.
    assert!(report.zero_loss());
}

#[test]
fn timeout_schemes_order_connection_counts() {
    // Figure 8's premise at miniature scale: with the default two-level
    // timeouts, fewer connections stay resident than with
    // inactivity-only, which in turn is fewer than with no timeouts.
    use retina_conntrack::TimeoutConfig;
    let packets = generate(&CampusConfig {
        target_packets: 60_000,
        duration_secs: 30.0,
        ..CampusConfig::small(0xF18)
    });
    let resident = |timeouts: TimeoutConfig| {
        let filter = Arc::new(compile("").unwrap());
        let config = RuntimeConfig {
            timeouts,
            ..RuntimeConfig::default()
        };
        // Measure expiries: more expiries with aggressive timeouts means
        // fewer resident connections at any instant.
        let stats = run_offline::<ConnRecord, _>(&filter, &config, packets.clone(), |_| {});
        stats.conns_expired
    };
    let default_expired = resident(TimeoutConfig::retina_default());
    let inact_expired = resident(TimeoutConfig::inactivity_only());
    let none_expired = resident(TimeoutConfig::none());
    assert!(
        default_expired > inact_expired,
        "{default_expired} vs {inact_expired}"
    );
    assert_eq!(none_expired, 0);
}

#[test]
fn pcap_roundtrip_preserves_analysis() {
    // Write the workload to a pcap, read it back, and get identical
    // results — validating offline mode end to end.
    let wl = HttpsWorkload {
        requests_per_sec: 30,
        response_bytes: 4096,
        duration_secs: 0.5,
        ..Default::default()
    };
    let packets = wl.generate();

    let mut buf = Vec::new();
    {
        let mut w = retina_pcap::PcapWriter::new(&mut buf).unwrap();
        for (frame, ts) in &packets {
            w.write_packet(frame, *ts).unwrap();
        }
        w.flush().unwrap();
    }
    let restored = retina_pcap::PcapReader::new(&buf[..])
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(restored.len(), packets.len());

    let filter = Arc::new(compile("tls").unwrap());
    let mut direct = 0;
    run_offline::<TlsHandshakeData, _>(&filter, &RuntimeConfig::default(), packets, |_| {
        direct += 1;
    });
    let mut via_pcap = 0;
    run_offline::<TlsHandshakeData, _>(&filter, &RuntimeConfig::default(), restored, |_| {
        via_pcap += 1;
    });
    assert_eq!(direct, via_pcap);
    assert_eq!(direct, 15);
}

#[test]
fn retina_and_baselines_agree_on_matches() {
    // §6.2's task: both Retina and the baseline monitors must log the
    // same TLS connections; the difference is how much work it takes.
    use retina_baselines::{Monitor, SnortLike, SuricataLike, ZeekLike};
    let wl = HttpsWorkload {
        requests_per_sec: 40,
        response_bytes: 8192,
        duration_secs: 0.5,
        ..Default::default()
    };
    let packets = wl.generate();

    let filter = Arc::new(compile("tls.sni ~ 'nginx'").unwrap());
    let mut retina_matches = 0u64;
    run_offline::<TlsHandshakeData, _>(&filter, &RuntimeConfig::default(), packets.clone(), |_| {
        retina_matches += 1;
    });

    let mut zeek = ZeekLike::new("nginx");
    let mut snort = SnortLike::new("nginx");
    let mut suricata = SuricataLike::new("nginx");
    for (frame, ts) in &packets {
        zeek.process(frame, *ts);
        snort.process(frame, *ts);
        suricata.process(frame, *ts);
    }
    assert_eq!(retina_matches, 20);
    assert_eq!(zeek.report().matches, retina_matches);
    assert_eq!(snort.report().matches, retina_matches);
    assert_eq!(suricata.report().matches, retina_matches);
}

#[test]
fn stage_reduction_cascade() {
    // Figure 7's qualitative property: each pipeline stage runs on a
    // (weakly) decreasing fraction of traffic, and the callback runs on a
    // tiny fraction for a narrow filter.
    let packets = generate(&CampusConfig {
        target_packets: 80_000,
        ..CampusConfig::small(0xF167)
    });
    let filter =
        Arc::new(compile(r"tcp.port = 443 and tls.sni ~ '(.+?\.)?nflxvideo\.net'").unwrap());
    let config = RuntimeConfig {
        profile_stages: true,
        ..RuntimeConfig::default()
    };
    let mut callbacks = 0u64;
    let stats = run_offline::<ConnRecord, _>(&filter, &config, packets, |_| callbacks += 1);

    let total = stats.packet_filter.runs as f64;
    let tracked = stats.conn_tracking.runs as f64;
    let reassembled = stats.reassembly.runs as f64;
    let parsed = stats.app_parsing.runs as f64;
    assert!(tracked < total, "packet filter must discard non-TCP-443");
    assert!(reassembled <= tracked);
    // Parsing stops early for discarded conns, so parsing units stay well
    // below reassembly units.
    assert!(parsed <= reassembled * 1.05);
    assert!(callbacks > 0, "some Netflix conns must exist in the mix");
    assert!(
        (callbacks as f64) < total / 50.0,
        "callback on a tiny fraction: {callbacks} of {total}"
    );
}

#[test]
fn session_records_match_generated_composition() {
    // The session mix the pipeline reports should reflect the generator's
    // composition: TLS >> SSH.
    let packets = generate(&CampusConfig::small(0xC0DE));
    let filter = Arc::new(compile("tls or http or dns or ssh").unwrap());
    let mut tls = 0;
    let mut http = 0;
    let mut dns = 0;
    let mut ssh = 0;
    run_offline::<SessionRecord, _>(&filter, &RuntimeConfig::default(), packets, |s| {
        match retina_filter::SessionData::protocol(&s.session) {
            "tls" => tls += 1,
            "http" => http += 1,
            "dns" => dns += 1,
            "ssh" => ssh += 1,
            _ => {}
        }
    });
    assert!(tls > ssh, "tls={tls} ssh={ssh}");
    assert!(dns > 0 && http > 0);
}

#[test]
fn dispatched_union_is_byte_identical_to_inline_across_schedules() {
    // The dispatch tentpole's acceptance criterion: for every
    // subscription in a 4-subscription union, shared-pool and
    // dedicated-worker dispatch produce byte-identical per-subscription
    // results to inline delivery, across at least three seeded worker
    // schedules. "Byte-identical" is the full Debug rendering of every
    // delivered record compared as sorted multisets; the stepped
    // executor's seeded interleaving may permute order, nothing else.
    use retina_core::subscribables::{DnsTransactionData, HttpTransactionData};
    use retina_core::{DispatchMode, RuntimeBuilder, StepConfig};

    let packets = generate(&CampusConfig::small(0xD15B));

    // One stepped run of the union under `mode` and schedule `seed`:
    // per-sub sorted record multisets plus the run's digest.
    let run = |mode: DispatchMode, seed: u64| -> (Vec<Vec<String>>, String) {
        let outs: [Arc<Mutex<Vec<String>>>; 4] = std::array::from_fn(|_| Arc::default());
        let (o0, o1, o2, o3) = (
            Arc::clone(&outs[0]),
            Arc::clone(&outs[1]),
            Arc::clone(&outs[2]),
            Arc::clone(&outs[3]),
        );
        let rt = RuntimeBuilder::new(RuntimeConfig::default())
            .subscribe_dispatched::<TlsHandshakeData>("tls", "tls", mode, move |hs| {
                o0.lock().unwrap().push(format!("{hs:?}"));
            })
            .subscribe_dispatched::<HttpTransactionData>("http", "http", mode, move |tx| {
                o1.lock().unwrap().push(format!("{tx:?}"));
            })
            .subscribe_dispatched::<DnsTransactionData>("dns", "dns", mode, move |d| {
                o2.lock().unwrap().push(format!("{d:?}"));
            })
            .subscribe_dispatched::<ConnRecord>("conns", "ipv4 and tcp", mode, move |c| {
                o3.lock().unwrap().push(format!("{c:?}"));
            })
            .build()
            .unwrap();
        let report = rt.run_stepped(&packets, &StepConfig::seeded(seed));
        report.check_accounting().expect("accounting exact");
        let multisets = outs
            .iter()
            .map(|o| {
                let mut v = o.lock().unwrap().clone();
                v.sort();
                v
            })
            .collect();
        (multisets, report.deterministic_digest())
    };

    let (inline_sets, inline_digest) = run(DispatchMode::Inline, 0);
    for (i, name) in ["tls", "http", "dns", "conns"].iter().enumerate() {
        assert!(!inline_sets[i].is_empty(), "{name} delivered nothing");
    }
    for seed in [0x5EED1u64, 0x5EED2, 0x5EED3] {
        for mode in [DispatchMode::shared(8), DispatchMode::dedicated(8)] {
            let (sets, digest) = run(mode, seed);
            assert_eq!(digest, inline_digest, "digest diverged: {mode:?}/{seed:#x}");
            for (i, name) in ["tls", "http", "dns", "conns"].iter().enumerate() {
                assert_eq!(
                    sets[i], inline_sets[i],
                    "{name} records diverged from inline under {mode:?}, seed {seed:#x}"
                );
            }
        }
    }
}

/// One subscription over the same frames through all three drivers of
/// the per-core pipeline: threaded `run` (1 core, paced ingest, hardware
/// filtering off so the NIC delivers every frame), `run_stepped`, and
/// `run_offline`. `value` reduces a delivered datum to a number that
/// does not depend on receive metadata.
fn three_drivers_agree<S: retina_core::Subscribable + 'static>(
    src: &str,
    packets: &[(retina_support::bytes::Bytes, u64)],
    value: fn(&S) -> u64,
) {
    use retina_core::{CompiledFilter, RuntimeBuilder, StepConfig};

    let config = RuntimeConfig {
        hw_filtering: false,
        ..RuntimeConfig::default()
    };
    // (deliveries, order-insensitive content checksum) seen by a callback.
    let seen = || Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let note = |s: &(AtomicU64, AtomicU64), v: u64| {
        s.0.fetch_add(1, Ordering::Relaxed);
        s.1.fetch_add(v, Ordering::Relaxed);
    };
    let read =
        |s: &(AtomicU64, AtomicU64)| (s.0.load(Ordering::Relaxed), s.1.load(Ordering::Relaxed));
    let build = |sink: &Arc<(AtomicU64, AtomicU64)>| {
        let sink = Arc::clone(sink);
        RuntimeBuilder::new(config.clone())
            .subscribe::<S>(src, move |d| note(&sink, value(&d)))
            .build()
            .unwrap()
    };

    let threaded_seen = seen();
    let threaded = build(&threaded_seen).run(PreloadedSource::new(packets.to_vec()));
    threaded.check_accounting().expect("threaded accounting");
    assert!(threaded.zero_loss());

    let stepped_seen = seen();
    let stepped = build(&stepped_seen).run_stepped(packets, &StepConfig::seeded(3));
    stepped.check_accounting().expect("stepped accounting");
    assert!(stepped.delivered() > 0, "{src:?} delivered nothing");
    assert_eq!(
        threaded.deterministic_digest(),
        stepped.deterministic_digest(),
        "{src:?}: threaded != stepped"
    );
    assert_eq!(read(&threaded_seen), read(&stepped_seen), "{src:?}");

    let offline_seen = seen();
    let filter = Arc::new(CompiledFilter::build(src, &config.filter_registry).unwrap());
    let offline = run_offline::<S, _>(&filter, &config, packets.iter().cloned(), |d| {
        note(&offline_seen, value(&d));
    });
    offline.check_conn_accounting().expect("offline accounting");
    let counters = |c: &retina_core::CoreStats| {
        [
            c.rx_packets,
            c.parse_failures,
            c.packet_filter.runs,
            c.conns_created,
            c.conns_discarded,
            c.conns_terminated,
            c.conns_expired + c.conns_drained,
            c.callbacks.runs,
        ]
    };
    assert_eq!(
        counters(&offline),
        counters(&stepped.cores),
        "{src:?}: offline != stepped"
    );
    assert_eq!(read(&offline_seen), read(&stepped_seen), "{src:?}");
}

#[test]
fn threaded_stepped_and_offline_drivers_agree() {
    use retina_core::subscribables::ZcFrame;

    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
    let packets = generate(&CampusConfig::small(0x3D21));
    // Packet-level: served straight off the packet filter (the bypass).
    three_drivers_agree::<ZcFrame>("ipv4 and udp", &packets, |f| {
        f.data().iter().map(|&b| u64::from(b)).sum()
    });
    three_drivers_agree::<ConnRecord>("ipv4 and tcp", &packets, |c| fnv(&format!("{c:?}")));
    three_drivers_agree::<TlsHandshakeData>("tls", &packets, |hs| fnv(&format!("{hs:?}")));
}

#[test]
fn offline_profiles_every_stage_it_runs() {
    // `profile_stages` must time the packet filter and the callbacks in
    // offline mode exactly as it does behind a NIC.
    let packets = generate(&CampusConfig::small(0x3D21));
    let config = RuntimeConfig {
        profile_stages: true,
        ..RuntimeConfig::default()
    };
    let filter = Arc::new(compile("tls").unwrap());
    let stats = run_offline::<TlsHandshakeData, _>(&filter, &config, packets, |_| {});
    assert!(stats.callbacks.runs > 0);
    for (name, stage) in [
        ("packet_filter", &stats.packet_filter),
        ("callbacks", &stats.callbacks),
    ] {
        assert!(stage.cycles > 0, "{name}: {} runs, 0 cycles", stage.runs);
    }
}

#[test]
fn merged_runtime_equals_independent_runtimes() {
    // The tentpole invariant of the multi-subscription runtime: one
    // merged 4-subscription pass delivers byte-identical per-subscription
    // results to four independent single-subscription runtimes over the
    // same traffic. "Byte-identical" is literal: the full Debug rendering
    // of every delivered record, compared as sorted multisets (multi-core
    // interleaving may permute delivery order, nothing else).
    use retina_core::subscribables::{DnsTransactionData, HttpTransactionData};
    use retina_core::RuntimeBuilder;

    let packets = generate(&CampusConfig::small(0x4111));

    fn run_alone<S: retina_core::Subscribable + std::fmt::Debug + 'static>(
        src: &str,
        packets: Vec<(retina_support::bytes::Bytes, u64)>,
    ) -> Vec<String> {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = Arc::clone(&out);
        let filter = compile(src).unwrap();
        let mut rt = Runtime::<S, _>::new(RuntimeConfig::with_cores(2), filter, move |rec| {
            o2.lock().unwrap().push(format!("{rec:?}"));
        })
        .unwrap();
        assert!(rt.run(PreloadedSource::new(packets)).zero_loss());
        let mut v = out.lock().unwrap().clone();
        v.sort();
        v
    }

    let alone = [
        run_alone::<TlsHandshakeData>("tls", packets.clone()),
        run_alone::<HttpTransactionData>("http", packets.clone()),
        run_alone::<DnsTransactionData>("dns", packets.clone()),
        run_alone::<ConnRecord>("ipv4 and tcp", packets.clone()),
    ];

    let merged: [Arc<Mutex<Vec<String>>>; 4] = std::array::from_fn(|_| Arc::default());
    let (m0, m1, m2, m3) = (
        Arc::clone(&merged[0]),
        Arc::clone(&merged[1]),
        Arc::clone(&merged[2]),
        Arc::clone(&merged[3]),
    );
    let mut rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
        .subscribe_named::<TlsHandshakeData>("tls", "tls", move |hs| {
            m0.lock().unwrap().push(format!("{hs:?}"));
        })
        .subscribe_named::<HttpTransactionData>("http", "http", move |tx| {
            m1.lock().unwrap().push(format!("{tx:?}"));
        })
        .subscribe_named::<DnsTransactionData>("dns", "dns", move |dns| {
            m2.lock().unwrap().push(format!("{dns:?}"));
        })
        .subscribe_named::<ConnRecord>("conns", "ipv4 and tcp", move |c| {
            m3.lock().unwrap().push(format!("{c:?}"));
        })
        .build()
        .unwrap();
    let report = rt.run(PreloadedSource::new(packets));
    assert!(report.zero_loss());

    for (i, name) in ["tls", "http", "dns", "conns"].iter().enumerate() {
        let mut got = merged[i].lock().unwrap().clone();
        got.sort();
        assert!(!got.is_empty(), "subscription {name} delivered nothing");
        assert_eq!(
            got, alone[i],
            "subscription {name} diverged from its solo run"
        );
        assert_eq!(
            report.subs[i].delivered,
            got.len() as u64,
            "telemetry for {name} disagrees with callback count"
        );
    }
}
