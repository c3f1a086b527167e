//! §7.2: Anonymized packet analysis — subscribe to the raw packets of
//! HTTP connections and anonymize their IP addresses with a
//! prefix-preserving permutation, producing shareable packet data.
//!
//! The paper calls a format-preserving encryption crate; here the
//! anonymizer is implemented inline (a Crypto-PAn-style prefix-preserving
//! keyed permutation) to stay within the dependency budget. Identical
//! prefixes anonymize to identical prefixes, so subnet structure survives
//! for research use while addresses do not.

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_core::subscribables::ZcFrame;
use retina_core::{ParsedPacket, Runtime, RuntimeConfig};
use retina_examples::cli_args;
use retina_filtergen::filter;
use retina_trafficgen::campus::{campus_source, CampusConfig};

filter!(http_packets, "http");

/// Prefix-preserving anonymization of an IPv4 address: each output bit
/// depends (via a keyed PRF) only on the preceding input bits, the
/// Crypto-PAn construction.
fn anonymize_v4(addr: u32, key: u64) -> u32 {
    let mut out = 0u32;
    for bit in 0..32 {
        let prefix = if bit == 0 { 0 } else { addr >> (32 - bit) };
        let mut h = DefaultHasher::new();
        (key, bit, prefix).hash(&mut h);
        let flip = (h.finish() & 1) as u32;
        let orig_bit = (addr >> (31 - bit)) & 1;
        out = (out << 1) | (orig_bit ^ flip);
    }
    out
}

fn main() {
    let args = cli_args();
    let key: u64 = 0x5eed_0f4a_a175_0001; // demo key; load from config in deployment

    let packets_out = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&packets_out);
    let callback = move |frame: ZcFrame| {
        // Parse, anonymize the endpoints, and (in a real deployment)
        // write the rewritten packet to storage.
        if let Ok(pkt) = ParsedPacket::parse(frame.data()) {
            if let (IpAddr::V4(s), IpAddr::V4(d)) = (pkt.src_ip, pkt.dst_ip) {
                let anon_src = anonymize_v4(u32::from(s), key);
                let anon_dst = anonymize_v4(u32::from(d), key);
                // The anonymized pair is what would be persisted.
                std::hint::black_box((anon_src, anon_dst));
            }
        }
        sink.fetch_add(1, Ordering::Relaxed);
    };

    let mut runtime = Runtime::new(
        RuntimeConfig::with_cores(args.cores as u16),
        http_packets(),
        callback,
    )
    .expect("runtime");
    let source = campus_source(&CampusConfig {
        seed: args.seed,
        target_packets: args.packets as usize,
        ..CampusConfig::default()
    });
    let report = runtime.run(source);

    println!(
        "anonymized {} HTTP packets out of {} total at {:.2} Gbps (zero loss: {})",
        packets_out.load(Ordering::Relaxed),
        report.nic.rx_offered,
        report.gbps(),
        report.zero_loss()
    );

    // Demonstrate prefix preservation.
    let a = u32::from("171.64.1.10".parse::<std::net::Ipv4Addr>().unwrap());
    let b = u32::from("171.64.1.77".parse::<std::net::Ipv4Addr>().unwrap());
    let c = u32::from("8.8.8.8".parse::<std::net::Ipv4Addr>().unwrap());
    let (aa, ab, ac) = (
        anonymize_v4(a, key),
        anonymize_v4(b, key),
        anonymize_v4(c, key),
    );
    println!(
        "prefix preservation: {}/{} share a /24 -> {}/{} share a /24; unrelated {} -> {}",
        std::net::Ipv4Addr::from(a),
        std::net::Ipv4Addr::from(b),
        std::net::Ipv4Addr::from(aa),
        std::net::Ipv4Addr::from(ab),
        std::net::Ipv4Addr::from(c),
        std::net::Ipv4Addr::from(ac),
    );
    assert_eq!(aa >> 8, ab >> 8, "same /24 in, same /24 out");
}
