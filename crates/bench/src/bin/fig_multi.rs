//! Multi-subscription merge benchmark: one `MultiRuntime` serving four
//! subscriptions (TLS handshakes, HTTP transactions, DNS transactions,
//! connection records) through a single merged predicate trie, against
//! the naive baseline of four independent single-subscription runtimes
//! each re-processing the same traffic.
//!
//! The merged pipeline decides all four subscriptions in one trie walk
//! per packet, so it must
//!
//! 1. execute strictly fewer software packet-filter evaluations
//!    (1 per packet instead of 4 — the §4 motivation for merging),
//! 2. deliver exactly the same per-subscription record counts, and
//! 3. lose no packet in any run.
//!
//! All three are deterministic for the seeded workload; the exit code
//! gates them. Wall-clock times are printed for reading only: on a
//! time-shared host they are noise, not a property.

use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use retina_bench::bench_args;
use retina_core::subscribables::{
    ConnRecord, DnsTransactionData, HttpTransactionData, TlsHandshakeData,
};
use retina_core::{compile, RunReport, Runtime, RuntimeBuilder, RuntimeConfig};
use retina_support::bytes::Bytes;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

const FILTERS: [(&str, &str); 4] = [
    ("tls", "tls"),
    ("http", "http"),
    ("dns", "dns"),
    ("conns", "ipv4 and tcp"),
];

fn config() -> RuntimeConfig {
    let mut config = RuntimeConfig::with_cores(2);
    config.paced_ingest = true;
    config
}

/// Runs one single-subscription runtime over the workload; returns the
/// report and the callback count.
fn run_single<S>(src: &str, packets: Vec<(Bytes, u64)>) -> (RunReport, u64)
where
    S: retina_core::Subscribable + 'static,
{
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    let filter = compile(src).expect("filter compiles");
    let mut rt = Runtime::<S, _>::new(config(), filter, move |_| {
        c.fetch_add(1, Ordering::Relaxed);
    })
    .expect("runtime");
    let report = rt.run(PreloadedSource::new(packets));
    (report, count.load(Ordering::Relaxed))
}

fn main() {
    let args = bench_args();
    println!("generating campus mix (~{} packets)...", args.packets);
    let packets = generate(&CampusConfig {
        target_packets: args.packets.min(120_000),
        duration_secs: 30.0,
        ..CampusConfig::default()
    });
    let offered = packets.len();
    println!(
        "workload: {offered} packets; 4 subscriptions: {}",
        FILTERS.map(|(n, s)| format!("{n}={s:?}")).join(", ")
    );

    // --- Baseline: four independent runtimes, four full passes. ---
    let t0 = Instant::now();
    let (r_tls, n_tls) = run_single::<TlsHandshakeData>(FILTERS[0].1, packets.clone());
    let (r_http, n_http) = run_single::<HttpTransactionData>(FILTERS[1].1, packets.clone());
    let (r_dns, n_dns) = run_single::<DnsTransactionData>(FILTERS[2].1, packets.clone());
    let (r_conn, n_conn) = run_single::<ConnRecord>(FILTERS[3].1, packets.clone());
    let separate_secs = t0.elapsed().as_secs_f64();
    let separate_counts = [n_tls, n_http, n_dns, n_conn];
    let separate_evals: u64 = [&r_tls, &r_http, &r_dns, &r_conn]
        .iter()
        .map(|r| r.cores.packet_filter.runs)
        .sum();
    for r in [&r_tls, &r_http, &r_dns, &r_conn] {
        if !r.zero_loss() {
            eprintln!("fig_multi FAILED: baseline run lost packets");
            exit(1);
        }
    }
    println!(
        "separate: {separate_evals} packet-filter evals, {separate_secs:.2}s, delivered {separate_counts:?}"
    );

    // --- Merged: one runtime, one pass, four subscriptions. ---
    let counts: Arc<[AtomicU64; 4]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let (c0, c1, c2, c3) = (
        Arc::clone(&counts),
        Arc::clone(&counts),
        Arc::clone(&counts),
        Arc::clone(&counts),
    );
    let t1 = Instant::now();
    let mut rt = RuntimeBuilder::new(config())
        .subscribe_named::<TlsHandshakeData>("tls", FILTERS[0].1, move |_| {
            c0[0].fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_named::<HttpTransactionData>("http", FILTERS[1].1, move |_| {
            c1[1].fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_named::<DnsTransactionData>("dns", FILTERS[2].1, move |_| {
            c2[2].fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_named::<ConnRecord>("conns", FILTERS[3].1, move |_| {
            c3[3].fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .expect("merged runtime");
    let merged_report = rt.run(PreloadedSource::new(packets));
    let merged_secs = t1.elapsed().as_secs_f64();
    let merged_evals = merged_report.cores.packet_filter.runs;
    let merged_counts: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    if !merged_report.zero_loss() {
        eprintln!("fig_multi FAILED: merged run lost packets");
        exit(1);
    }
    println!(
        "merged:   {merged_evals} packet-filter evals, {merged_secs:.2}s, delivered {merged_counts:?}"
    );

    // (2) Same results, subscription by subscription.
    let mut results_match = true;
    for (i, (name, _)) in FILTERS.iter().enumerate() {
        if merged_counts[i] != separate_counts[i] {
            eprintln!(
                "fig_multi FAILED: subscription {name} delivered {} merged vs {} separate",
                merged_counts[i], separate_counts[i]
            );
            results_match = false;
        }
        // The per-subscription telemetry must agree with the callbacks.
        let reported = merged_report.subs[i].delivered;
        if reported != merged_counts[i] {
            eprintln!(
                "fig_multi FAILED: telemetry reports {reported} for {name}, callbacks saw {}",
                merged_counts[i]
            );
            results_match = false;
        }
    }

    // (1) Strictly fewer packet-filter evaluations.
    if merged_evals >= separate_evals {
        eprintln!(
            "fig_multi FAILED: merged ran {merged_evals} packet-filter evals, \
             baseline {separate_evals}"
        );
        exit(1);
    }
    if !results_match {
        exit(1);
    }

    println!(
        "fig_multi OK: {:.2}x fewer evals, {:.2}x wall-clock speedup",
        separate_evals as f64 / merged_evals as f64,
        separate_secs / merged_secs,
    );
}
