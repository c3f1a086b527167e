//! Figure 8: connection-state memory over time under three timeout
//! schemes — Retina's default (5 s establish + 5 min inactivity), a
//! single 5-minute inactivity timeout, and no timeouts.
//!
//! Drives the per-core pipeline directly over a long simulated capture
//! (scan-heavy arrivals, per Table 2's 65% single-SYN rate) and samples
//! the number of resident connections and estimated state bytes each
//! simulated 10 seconds. Expiry is the pipeline's own: it sweeps idle
//! connections after every `SWEEP_EVERY`th frame, as on every driver, so
//! a sample sees the table as a core running the capture would.

use std::sync::Arc;

use retina_bench::{bench_args, rule};
use retina_conntrack::TimeoutConfig;
use retina_core::offline::Direct;
use retina_core::subscribables::ConnRecord;
use retina_core::{compile, CorePipeline, ErasedSubscription, RuntimeConfig, TypedSubscription};
use retina_telemetry::LogHistogram;
use retina_trafficgen::campus::{generate, CampusConfig};

const SAMPLE_EVERY_NS: u64 = 10_000_000_000; // 10 simulated seconds

/// (sim time ns, resident connections, estimated state bytes) samples.
type SamplePoint = (u64, usize, usize);

fn main() {
    let args = bench_args();
    // Long simulated window so the 5-minute timeout becomes visible.
    let sim_secs = if args.quick { 420.0 } else { 900.0 };
    println!(
        "generating campus mix over {} simulated seconds (~{} packets)...",
        sim_secs, args.packets
    );
    let packets = generate(&CampusConfig {
        target_packets: args.packets,
        duration_secs: sim_secs,
        ..CampusConfig::default()
    });

    let schemes: [(&str, TimeoutConfig); 3] = [
        (
            "5s establish + 5m inactive (default)",
            TimeoutConfig::retina_default(),
        ),
        ("5m inactive only", TimeoutConfig::inactivity_only()),
        ("no timeouts", TimeoutConfig::none()),
    ];

    let mut series: Vec<(&str, Vec<SamplePoint>)> = Vec::new();
    let mut peaks: Vec<(&str, u64, LogHistogram)> = Vec::new();
    for (name, timeouts) in schemes {
        let config = RuntimeConfig {
            timeouts,
            ..RuntimeConfig::default()
        };
        let sub: Arc<dyn ErasedSubscription> =
            Arc::new(TypedSubscription::<ConnRecord>::spec_only("conns"));
        let mut pipeline = CorePipeline::new(Arc::new(compile("").unwrap()), &[sub], &config, None);
        let mut discard = Direct::new(|_: ConnRecord| {});
        let mut samples = Vec::new();
        let mut next_sample = SAMPLE_EVERY_NS;
        // A distribution of the sampled state sizes; sampling every 10
        // sim-seconds can miss a spike, so the true per-packet maximum
        // (the tracker's own `conns_peak`) is reported alongside.
        let mut state_hist = LogHistogram::new();
        let mut rest = &packets[..];
        while !rest.is_empty() {
            // Everything up to the first frame that is due a sample.
            let due = rest.iter().position(|(_, ts)| *ts >= next_sample);
            let (burst, tail) = rest.split_at(due.map_or(rest.len(), |at| at + 1));
            rest = tail;
            pipeline.on_burst(burst, [], &mut discard);
            if due.is_some() {
                let ts = burst[burst.len() - 1].1;
                let conns = pipeline.tracker().connections();
                let state = pipeline.tracker().state_bytes();
                state_hist.record(state as u64);
                samples.push((ts / 1_000_000_000, conns, state));
                next_sample += SAMPLE_EVERY_NS;
            }
        }
        series.push((name, samples));
        peaks.push((name, pipeline.tracker().stats().conns_peak, state_hist));
    }

    println!("\nFigure 8: connections in memory over time (sampled every 10 sim-seconds)");
    println!(
        "{:>6} {:>22} {:>22} {:>22}",
        "t(s)", "default (5s+5m)", "5m inactive", "no timeouts"
    );
    rule(76);
    let rows = series.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
    for i in 0..rows {
        // Print every other sample to keep the table readable.
        if i % 2 != 0 {
            continue;
        }
        let t = series[0].1[i].0;
        print!("{t:>6}");
        for (_, samples) in &series {
            let (_, conns, bytes) = samples[i];
            print!("{:>22}", format!("{conns} ({} KB)", bytes / 1024));
        }
        println!();
    }

    println!("\nsteady-state comparison (last sample):");
    let mut last: Vec<(&str, usize, usize)> = Vec::new();
    for (name, samples) in &series {
        if let Some(&(_, conns, bytes)) = samples.last() {
            last.push((name, conns, bytes));
        }
    }
    for (name, conns, bytes) in &last {
        println!("  {name:<40} {conns:>9} conns {:>12} KB", bytes / 1024);
    }

    println!("\nmemory pressure (peak conns; sampled state bytes p50/p95/max):");
    for (name, peak, hist) in &peaks {
        println!(
            "  {name:<40} peak {peak:>9} conns | state p50 {:>10} KB  p95 {:>10} KB  max {:>10} KB",
            hist.p50() / 1024,
            hist.p95() / 1024,
            hist.max_bound() / 1024,
        );
    }
    if last.len() == 3 && last[0].1 > 0 {
        println!(
            "\nratios vs default: inactivity-only {:.1}x conns, no-timeout {:.1}x conns",
            last[1].1 as f64 / last[0].1 as f64,
            last[2].1 as f64 / last[0].1 as f64,
        );
        println!(
            "paper: default tracked 7.7x fewer connections and used 6.4x less\n\
             memory than 5m-inactivity-only; no-timeout exhausted 340 GB in ~11 min."
        );
    }
}
