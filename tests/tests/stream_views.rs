//! A byte-stream subscription holds views into pooled frames, so on the
//! threaded runtime its streams pin mempool buffers for as long as their
//! connections live. Over a shrunk §6.2 HTTPS workload (every flow a
//! bulk download delivered as `ConnBytes`) that must cost no frame —
//! nothing lost, the same digest and the same bytes as the stepped run —
//! and the pool's high-water mark must show the pinning: at least the
//! data frames of the largest set of flows open at once (about capture
//! cap ÷ MSS per live connection and direction, never more than
//! `STREAM_CAPTURE_SEGMENTS`; see `StreamBytes`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_conntrack::ConnKey;
use retina_core::subscribables::ConnBytes;
use retina_core::{RuntimeBuilder, RuntimeConfig, StepConfig};
use retina_support::bytes::Bytes;
use retina_trafficgen::{HttpsWorkload, PreloadedSource};
use retina_wire::ParsedPacket;

/// The most data frames any moment of `packets` finds held by streams: a
/// flow holds each payload-carrying frame from its arrival to the flow's
/// first FIN (the tracker holds them a little longer — to the second).
fn held_peak(packets: &[(Bytes, u64)]) -> usize {
    let mut held: HashMap<ConnKey, usize> = HashMap::new();
    let (mut total, mut peak) = (0usize, 0usize);
    for (frame, _) in packets {
        let pkt = ParsedPacket::parse(frame).expect("generated frames parse");
        let key = ConnKey::from_packet(&pkt);
        if pkt.tcp_flags().is_some_and(retina_wire::TcpFlags::fin) {
            total -= held.remove(&key).unwrap_or(0);
        } else if pkt.payload_len() > 0 {
            *held.entry(key).or_default() += 1;
            total += 1;
            peak = peak.max(total);
        }
    }
    peak
}

#[test]
fn threaded_https_streams_pin_frames_and_lose_none() {
    let packets = HttpsWorkload {
        requests_per_sec: 200,
        response_bytes: 64 * 1024,
        parallel: 32,
        duration_secs: 0.5,
        seed: 0xF166,
    }
    .generate();
    let config = RuntimeConfig {
        hw_filtering: false,
        ..RuntimeConfig::default()
    };
    let build = |seen: &Arc<(AtomicU64, AtomicU64)>| {
        let seen = Arc::clone(seen);
        RuntimeBuilder::new(config.clone())
            .subscribe_named("bytes", "tcp", move |conn: ConnBytes| {
                assert!(!conn.truncated);
                // Read every byte where it lies: an order-insensitive
                // content checksum.
                let sum: u64 = [&conn.client_stream, &conn.server_stream]
                    .into_iter()
                    .flat_map(retina_core::StreamBytes::chunks)
                    .flatten()
                    .map(|b| u64::from(*b))
                    .sum();
                seen.0.fetch_add(1, Ordering::Relaxed);
                seen.1.fetch_add(sum, Ordering::Relaxed);
            })
            .build()
            .expect("runtime builds")
    };
    let read =
        |s: &(AtomicU64, AtomicU64)| (s.0.load(Ordering::Relaxed), s.1.load(Ordering::Relaxed));

    let threaded_seen = Arc::default();
    let threaded = build(&threaded_seen).run(PreloadedSource::new(packets.clone()));
    threaded.check_accounting().expect("threaded accounting");
    assert_eq!(threaded.nic.lost(), 0, "{:?}", threaded.nic);

    let stepped_seen = Arc::default();
    let stepped = build(&stepped_seen).run_stepped(&packets, &StepConfig::seeded(3));
    stepped.check_accounting().expect("stepped accounting");
    assert_eq!(
        threaded.deterministic_digest(),
        stepped.deterministic_digest()
    );
    assert_eq!(read(&threaded_seen), read(&stepped_seen));
    assert_eq!(read(&stepped_seen).0, 100, "one datum per request");

    let pinned = held_peak(&packets);
    assert!(pinned > 500, "the workload overlaps its flows: {pinned}");
    assert!(
        threaded.mbuf_high_water >= pinned,
        "high water {} below the {pinned} frames open flows hold",
        threaded.mbuf_high_water
    );
    assert!(threaded.mbuf_high_water <= packets.len());
}
