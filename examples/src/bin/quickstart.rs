//! Figure 1, verbatim: log the server name and ciphersuite of every TLS
//! handshake with a domain ending in `.com` — the paper's 10-line hello
//! world, running over synthetic campus traffic.
//!
//! ```text
//! cargo run --release -p retina-examples --bin quickstart
//! ```

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_core::subscribables::TlsHandshakeData;
use retina_core::{Runtime, RuntimeConfig};
use retina_examples::cli_args;
use retina_filtergen::filter;
use retina_trafficgen::campus::{campus_source, CampusConfig};

// The subscription filter, checked at build time (§4).
filter!(com_domains, r"tls.sni matches '\.com$'");

fn main() {
    let args = cli_args();
    let cfg = RuntimeConfig::with_cores(args.cores as u16);

    let logged = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&logged);
    let callback = move |hs: TlsHandshakeData| {
        let n = counter.fetch_add(1, Ordering::Relaxed);
        if n < 25 {
            println!(
                "TLS handshake with {} using {}",
                hs.tls.sni(),
                hs.tls.cipher()
            );
        } else if n == 25 {
            println!("... (suppressing further per-handshake output)");
        }
    };

    let mut runtime = Runtime::new(cfg, com_domains(), callback).expect("runtime");
    let source = campus_source(&CampusConfig {
        seed: args.seed,
        target_packets: args.packets as usize,
        ..CampusConfig::default()
    });
    println!(
        "processing {} synthetic campus packets on {} cores...",
        source.len(),
        args.cores
    );
    let report = runtime.run(source);

    println!();
    println!(
        "done: {} packets ({}) in {:.2?}, {:.2} Gbps, zero loss: {}",
        report.nic.rx_offered,
        retina_examples::human_bytes(report.nic.rx_bytes),
        report.elapsed,
        report.gbps(),
        report.zero_loss(),
    );
    println!(
        "hardware filter dropped {} packets; {} .com handshakes logged",
        report.nic.hw_dropped,
        logged.load(Ordering::Relaxed),
    );
}
