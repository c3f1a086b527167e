//! Figure 7: effect of multi-layer filter decomposition — the fraction of
//! ingress packets that trigger each processing stage and the average CPU
//! cycles per stage, for the video-traffic filter
//! `tcp.port = 443 and tls.sni ~ '(.+?\.)?nflxvideo\.net'` over the
//! campus mix (hardware filtering enabled, per §6.3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_bench::{bench_args, rule};
use retina_core::subscribables::ConnRecord;
use retina_core::util::busy_loop;
use retina_core::{compile, Runtime, RuntimeConfig};
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

fn main() {
    let args = bench_args();
    println!("generating campus mix (~{} packets)...", args.packets);
    let packets = generate(&CampusConfig {
        target_packets: args.packets,
        duration_secs: 60.0,
        ..CampusConfig::default()
    });
    let source = PreloadedSource::new(packets);

    let filter_src = r"tcp.port = 443 and tls.sni ~ '(.+?\.)?nflxvideo\.net'";
    println!("filter: {filter_src}\n");

    let mut config = RuntimeConfig::with_cores(1);
    config.profile_stages = true;
    config.paced_ingest = true;
    let callbacks = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&callbacks);
    let mut runtime =
        Runtime::<ConnRecord, _>::new(config, compile(filter_src).unwrap(), move |_rec| {
            // The paper's example callback is "relatively expensive
            // analysis code"; model it with a moderate busy loop.
            busy_loop(50_000);
            c2.fetch_add(1, Ordering::Relaxed);
        })
        .expect("runtime");
    let report = runtime.run(source);

    let ingress = report.nic.rx_offered as f64;
    let stats = &report.cores;
    let hw = retina_core::StageSummary::default();
    let stages: Vec<(&str, u64, &retina_core::StageSummary)> = vec![
        ("Hardware Filter", report.nic.rx_offered, &hw),
        (
            "SW Packet Filter",
            stats.packet_filter.runs,
            &stats.packet_filter,
        ),
        (
            "Connection Tracking",
            stats.conn_tracking.runs,
            &stats.conn_tracking,
        ),
        (
            "Stream Reassembly",
            stats.reassembly.runs,
            &stats.reassembly,
        ),
        (
            "App-layer Parsing",
            stats.app_parsing.runs,
            &stats.app_parsing,
        ),
        (
            "Session Filter",
            stats.session_filter.runs,
            &stats.session_filter,
        ),
        ("Run Callback", stats.callbacks.runs, &stats.callbacks),
    ];

    println!("Figure 7: fraction of ingress packets triggering each stage");
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "stage", "runs", "% ingress", "avg cycles", "p50", "p95", "p99"
    );
    rule(94);
    for (name, runs, stage) in &stages {
        println!(
            "{name:<22} {runs:>12} {:>11.4}% {:>12.1} {:>10} {:>10} {:>10}",
            100.0 * *runs as f64 / ingress,
            stage.avg_cycles(),
            stage.p50(),
            stage.p95(),
            stage.p99(),
        );
    }
    println!(
        "\nend-to-end: {} ingress packets, {} callbacks ({:.6}% of ingress), zero loss: {}",
        report.nic.rx_offered,
        callbacks.load(Ordering::Relaxed),
        100.0 * callbacks.load(Ordering::Relaxed) as f64 / ingress,
        report.zero_loss(),
    );
    println!(
        "paper's cascade: 100% -> 35.4% -> 35.4% -> 1.54% -> 0.415% -> 0.07% -> 0.000188%\n\
         (absolute fractions depend on the traffic mix; the strict monotone\n\
         reduction through the stages is the reproduced property)"
    );
}
