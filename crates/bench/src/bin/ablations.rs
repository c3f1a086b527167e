//! Ablation studies for the design choices DESIGN.md calls out (beyond
//! those with their own figures: timeout schemes = fig8).
//!
//! 1. **Hardware pre-filtering on vs off** — how much software work the
//!    NIC-level rules save for a narrow subscription (§4.1).
//! 2. **Early discard vs callback filtering** — Retina's session filter
//!    discards non-matching connections mid-pipeline; the ablation
//!    parses *every* TLS handshake and filters in the callback, the
//!    anti-pattern the paper's lazy design eliminates (§5.2, §6.3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_bench::{bench_args, rule, timed};
use retina_core::subscribables::TlsHandshakeData;
use retina_core::{compile, Runtime, RuntimeConfig};
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

fn main() {
    let args = bench_args();
    println!("generating campus mix (~{} packets)...", args.packets);
    let source = PreloadedSource::new(generate(&CampusConfig {
        target_packets: args.packets,
        duration_secs: 30.0,
        ..CampusConfig::default()
    }));
    println!(
        "workload: {} packets, {} MB\n",
        source.len(),
        source.total_bytes() / 1_000_000
    );

    ablation_hw_filtering(&source);
    ablation_early_discard(&source);
}

fn run(
    source: &PreloadedSource,
    filter_src: &str,
    hw: bool,
    callback: impl Fn(TlsHandshakeData) + Send + Sync + 'static,
) -> (retina_core::RunReport, f64) {
    let mut config = RuntimeConfig::with_cores(1);
    config.hw_filtering = hw;
    config.paced_ingest = true;
    let mut runtime =
        Runtime::<TlsHandshakeData, _>::new(config, compile(filter_src).unwrap(), callback)
            .expect("runtime");
    let mut src = source.clone();
    src.rewind();
    let (report, secs) = timed(|| runtime.run(src));
    (report, secs)
}

fn ablation_hw_filtering(source: &PreloadedSource) {
    println!("Ablation 1: hardware pre-filtering (filter: tcp.port = 443 and tls)");
    println!(
        "{:<12} {:>10} {:>16} {:>16} {:>12}",
        "hw filter", "time (s)", "sw pkts seen", "hw dropped", "Gbps"
    );
    rule(70);
    for hw in [true, false] {
        let (report, secs) = run(source, "tcp.port = 443 and tls", hw, |_| {});
        println!(
            "{:<12} {:>10.2} {:>16} {:>16} {:>12.2}",
            if hw { "on" } else { "off" },
            secs,
            report.cores.rx_packets,
            report.nic.hw_dropped,
            report.offered_gbps(),
        );
    }
    println!(
        "expected: with rules installed the software path sees only the\n\
         TCP/443 share of traffic; with them off every packet crosses the\n\
         software packet filter (§4.1's zero-CPU-cost winnowing).\n"
    );
}

fn ablation_early_discard(source: &PreloadedSource) {
    println!("Ablation 2: in-pipeline session filter vs callback filtering");
    println!("task: deliver only Netflix-video TLS handshakes");
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>10}",
        "strategy", "time (s)", "callbacks", "conns parsed", "matches"
    );
    rule(74);

    // Retina way: the session filter discards non-matching conns in the
    // pipeline; the callback only ever sees matches.
    let matches = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&matches);
    let (report, secs) = run(
        source,
        r"tls.sni ~ '(.+?\.)?nflxvideo\.net'",
        true,
        move |_| {
            m.fetch_add(1, Ordering::Relaxed);
        },
    );
    println!(
        "{:<22} {:>10.2} {:>12} {:>14} {:>10}",
        "session filter",
        secs,
        report.cores.callbacks.runs,
        report.cores.app_parsing.runs,
        matches.load(Ordering::Relaxed),
    );

    // Anti-pattern: subscribe to *all* TLS handshakes and regex-filter in
    // the callback. Every handshake is fully parsed and delivered.
    let matches = Arc::new(AtomicU64::new(0));
    let m = Arc::clone(&matches);
    let re = retina_filter::regex::Regex::new(r"(.+?\.)?nflxvideo\.net").unwrap();
    let (report, secs) = run(source, "tls", true, move |hs| {
        if re.is_match(hs.tls.sni()) {
            m.fetch_add(1, Ordering::Relaxed);
        }
    });
    println!(
        "{:<22} {:>10.2} {:>12} {:>14} {:>10}",
        "callback filtering",
        secs,
        report.cores.callbacks.runs,
        report.cores.app_parsing.runs,
        matches.load(Ordering::Relaxed),
    );
    println!(
        "expected: identical match counts; the session-filter run executes\n\
         orders of magnitude fewer callbacks (and discards non-matching\n\
         connection state as soon as the SNI is known)."
    );
}
