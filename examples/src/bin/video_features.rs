//! §7.3 / Figure 9: extract transport-layer features of streaming-video
//! sessions for quality-inference models (Bronzino et al.'s features).
//!
//! Subscribes to TCP connection records filtered on the video services'
//! TLS server names, aggregates flows into sessions (same client, same
//! service, overlapping in time), and reports per-session features:
//! parallel flows, bytes up/down, out-of-order counts, and throughput.

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Arc, Mutex};

use retina_core::subscribables::ConnRecord;
use retina_core::{Runtime, RuntimeConfig};
use retina_examples::{cli_args, human_bytes};
use retina_filtergen::filter;
use retina_trafficgen::video::{VideoConfig, VideoWorkload};

// The paper's two video filters, joined: isolate Netflix and YouTube
// video flows on port 443 by SNI.
filter!(
    video_conns,
    r"tcp.port = 443 and (tls.sni ~ '(.+?\.)?nflxvideo\.net' or tls.sni ~ 'googlevideo')"
);

/// Per-session aggregated features (Bronzino et al.).
#[derive(Debug, Default, Clone)]
struct SessionFeatures {
    flows: u64,
    bytes_up: u64,
    bytes_down: u64,
    ooo_up: u64,
    ooo_down: u64,
    start_ns: u64,
    end_ns: u64,
}

fn main() {
    let args = cli_args();
    let sessions: Arc<Mutex<HashMap<(IpAddr, &'static str), SessionFeatures>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let sink = Arc::clone(&sessions);

    let callback = move |rec: ConnRecord| {
        let service = match rec.service {
            Some("tls") => {
                // Service identity by server prefix (the tuple's responder
                // address family distinguishes the generated CDNs).
                match rec.tuple.resp.ip() {
                    IpAddr::V4(v4) if v4.octets()[0] == 198 => "netflix",
                    _ => "youtube",
                }
            }
            _ => return,
        };
        let mut sessions = sink.lock().unwrap();
        let f = sessions.entry((rec.tuple.orig.ip(), service)).or_default();
        f.flows += 1;
        f.bytes_up += rec.bytes_up;
        f.bytes_down += rec.bytes_down;
        f.ooo_up += rec.ooo_up;
        f.ooo_down += rec.ooo_down;
        if f.start_ns == 0 || rec.first_seen_ns < f.start_ns {
            f.start_ns = rec.first_seen_ns;
        }
        f.end_ns = f.end_ns.max(rec.last_seen_ns);
    };

    let mut runtime = Runtime::new(
        RuntimeConfig::with_cores(args.cores as u16),
        video_conns(),
        callback,
    )
    .expect("runtime");

    let workload = VideoWorkload::generate(&VideoConfig {
        seed: args.seed,
        ..VideoConfig::default()
    });
    println!(
        "generated {} video sessions ({} packets); extracting features...",
        workload.sessions.len(),
        workload.packets.len()
    );
    let report = runtime.run(workload.source());

    let sessions = sessions.lock().unwrap();
    println!(
        "\nprocessed at {:.2} Gbps, zero loss: {}; {} sessions reconstructed\n",
        report.gbps(),
        report.zero_loss(),
        sessions.len()
    );
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>8} {:>12}",
        "service", "flows", "bytes_up", "bytes_down", "ooo", "mbps_down"
    );
    let mut rows: Vec<_> = sessions.iter().collect();
    rows.sort_by_key(|((ip, svc), _)| (svc.to_string(), ip.to_string()));
    for ((_, service), f) in rows.iter().take(20) {
        let secs = ((f.end_ns - f.start_ns) as f64 / 1e9).max(0.001);
        println!(
            "{:<10} {:>6} {:>12} {:>12} {:>8} {:>12.2}",
            service,
            f.flows,
            human_bytes(f.bytes_up),
            human_bytes(f.bytes_down),
            f.ooo_up + f.ooo_down,
            (f.bytes_down as f64 * 8.0) / secs / 1e6,
        );
    }
    if rows.len() > 20 {
        println!("... ({} more sessions)", rows.len() - 20);
    }
}
