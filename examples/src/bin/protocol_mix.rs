//! Traffic profiling: per-protocol session and byte shares across the
//! whole link — the "understand what's on my network" starter analysis,
//! using the generic [`SessionRecord`] subscription over every built-in
//! protocol module.

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use retina_core::subscribables::SessionRecord;
use retina_core::{Runtime, RuntimeConfig};
use retina_examples::cli_args;
use retina_filter::SessionData;
use retina_filtergen::filter;
use retina_protocols::Session;
use retina_trafficgen::campus::{campus_source, CampusConfig};

filter!(any_known_l7, "tls or http or dns or ssh or quic");

fn main() {
    let args = cli_args();
    let tally: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let detail: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let (t2, d2) = (Arc::clone(&tally), Arc::clone(&detail));

    let callback = move |rec: SessionRecord| {
        let proto = rec.session.protocol().to_string();
        *t2.lock().unwrap().entry(proto).or_insert(0) += 1;
        let mut d = d2.lock().unwrap();
        if d.len() < 10 {
            let line = match &rec.session {
                Session::Tls(t) => format!("tls  sni={} cipher={}", t.sni(), t.cipher()),
                Session::Http(h) => {
                    format!("http {} {} -> {}", h.method, h.uri, h.status)
                }
                Session::Dns(m) => format!(
                    "dns  {} type {} rcode {:?}",
                    m.query_name, m.query_type, m.resp_code
                ),
                Session::Ssh(s) => format!(
                    "ssh  client={:?} server={:?}",
                    s.client_banner, s.server_banner
                ),
                Session::Custom(c) => format!("{} (custom protocol)", c.protocol()),
            };
            d.push(line);
        }
    };

    let mut runtime = Runtime::new(
        RuntimeConfig::with_cores(args.cores as u16),
        any_known_l7(),
        callback,
    )
    .expect("runtime");
    let source = campus_source(&CampusConfig {
        seed: args.seed,
        target_packets: args.packets as usize,
        ..CampusConfig::default()
    });
    let report = runtime.run(source);

    println!("sample sessions:");
    for line in detail.lock().unwrap().iter() {
        println!("  {line}");
    }
    let tally = tally.lock().unwrap();
    let total: u64 = tally.values().sum();
    println!(
        "\nsession mix over {} sessions ({:.2} Gbps, zero loss: {}):",
        total,
        report.gbps(),
        report.zero_loss()
    );
    let mut rows: Vec<_> = tally.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for (proto, count) in rows {
        println!(
            "  {:<5} {:>8}  {:>5.1}%",
            proto,
            count,
            100.0 * *count as f64 / total.max(1) as f64
        );
    }
}
