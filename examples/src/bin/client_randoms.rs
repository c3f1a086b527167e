//! §7.1: Cryptographic anomalies — measure the frequency of TLS client
//! randoms across all handshakes, without sampling.
//!
//! A fundamental assumption of TLS is that client randoms never repeat.
//! The paper found the value `738b712a…dee0dbe1` 8,340 times in ten
//! minutes of campus traffic. The synthetic mix plants the same anomaly
//! (see `retina_trafficgen::campus`); this application finds it.

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use retina_core::subscribables::TlsHandshakeData;
use retina_core::{Runtime, RuntimeConfig};
use retina_examples::cli_args;
use retina_filtergen::filter;
use retina_trafficgen::campus::{campus_source, CampusConfig};

filter!(all_tls, "tls");

fn hex8(bytes: &[u8; 32]) -> String {
    let head: String = bytes[..4].iter().map(|b| format!("{b:02x}")).collect();
    let tail: String = bytes[28..].iter().map(|b| format!("{b:02x}")).collect();
    format!("{head}...{tail}")
}

fn main() {
    let args = cli_args();
    let counts: Arc<Mutex<HashMap<[u8; 32], u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let sink = Arc::clone(&counts);

    let callback = move |hs: TlsHandshakeData| {
        *sink
            .lock()
            .unwrap()
            .entry(hs.tls.client_random)
            .or_insert(0) += 1;
    };
    let mut runtime = Runtime::new(
        RuntimeConfig::with_cores(args.cores as u16),
        all_tls(),
        callback,
    )
    .expect("runtime");

    // The real-world anomaly rate (~6e-4 of 13.4M handshakes) would need
    // millions of synthetic handshakes to surface; scale the planted rate
    // up in proportion to the smaller trace so the *analysis* is
    // demonstrable. The detection code is identical either way.
    let source = campus_source(&CampusConfig {
        seed: args.seed,
        target_packets: args.packets as usize,
        broken_random_a_rate: 2.0e-2,
        broken_random_b_rate: 4.0e-3,
        zero_random_rate: 2.0e-3,
        ..CampusConfig::default()
    });
    let report = runtime.run(source);

    let counts = counts.lock().unwrap();
    let total: u64 = counts.values().sum();
    println!(
        "observed {} TLS handshakes ({} distinct client randoms) at {:.2} Gbps, zero loss: {}",
        total,
        counts.len(),
        report.gbps(),
        report.zero_loss()
    );
    let mut top: Vec<(&[u8; 32], &u64)> = counts.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    println!("\nmost frequent client randoms:");
    for (random, count) in top.iter().take(5) {
        println!("  {}  x{}", hex8(random), count);
    }
    let repeats: u64 = top.iter().filter(|(_, &c)| c > 1).map(|(_, &c)| c).sum();
    println!(
        "\n{} handshakes ({:.4}%) used a repeated nonce — likely broken entropy",
        repeats,
        100.0 * repeats as f64 / total.max(1) as f64
    );
}
