//! Figure 5: zero-packet-loss processing throughput for the three
//! subscription types (raw packets, TCP connection records, parsed TLS
//! handshakes) across core counts and callback complexities (busy-loop
//! cycles per callback).
//!
//! Methodology follows §6.1: hardware filtering is disabled (sink
//! sampling is incompatible with flow rules), the RETA sink fraction is
//! raised until a run completes with zero loss, and the delivered
//! throughput of that run is reported.
//!
//! Host caveat: this machine exposes a single CPU, so "cores" are
//! time-shared threads — per-core scaling cannot exceed 1× here. The
//! cross-subscription ordering and the callback-cost degradation are the
//! reproducible shape; EXPERIMENTS.md discusses the mapping to the
//! paper's 16-physical-core numbers.

use retina_bench::{bench_args, max_zero_loss_run, rule};
use retina_core::compile;
use retina_core::subscribables::{ConnRecord, TlsHandshakeData, ZcFrame};
use retina_core::util::busy_loop;
use retina_core::CompiledFilter;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

fn main() {
    let args = bench_args();
    let cores_list: &[u16] = if args.quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let cycles_list: &[u64] = if args.quick {
        &[0, 1_000]
    } else {
        &[0, 1_000, 100_000, 1_000_000]
    };

    println!("generating campus mix (~{} packets)...", args.packets);
    let packets = generate(&CampusConfig {
        target_packets: args.packets,
        duration_secs: 30.0,
        ..CampusConfig::default()
    });
    let source = PreloadedSource::new(packets);
    // Heavy-callback configurations (>= 100K cycles) process a quarter of
    // the workload: the measured throughput is rate-based, so a shorter
    // run measures the same steady state in a fraction of the time.
    let small = PreloadedSource::new(generate(&CampusConfig {
        target_packets: args.packets / 4,
        duration_secs: 8.0,
        ..CampusConfig::default()
    }));
    println!(
        "workload: {} packets, {} MB\n",
        source.len(),
        source.total_bytes() / 1_000_000
    );

    println!("Figure 5: max zero-loss throughput (Gbps) — rows: cores, cols: callback cycles");
    for (name, runner) in SUBSCRIPTIONS {
        println!("\n--- {name} ---");
        print!("{:>6}", "cores");
        for cy in cycles_list {
            print!("{:>12}", format!("{cy} cyc"));
        }
        println!("{:>8}", "sink%");
        rule(6 + 12 * cycles_list.len() + 8);
        for &cores in cores_list {
            print!("{cores:>6}");
            let mut last_sink = 0.0;
            for &cycles in cycles_list {
                let src = if cycles >= 100_000 { &small } else { &source };
                let (gbps, sink) = runner(src, cores, cycles);
                print!("{gbps:>12.2}");
                last_sink = sink;
            }
            println!("{:>8.0}", last_sink * 100.0);
        }
    }
    println!(
        "\nNote: single-CPU host — threads time-share, so absolute Gbps and\n\
         per-core scaling are not comparable to the paper's testbed; the\n\
         ordering packets > conn-records > tls-handshakes in per-packet cost\n\
         and the degradation with callback cycles are the reproduced shape."
    );
}

type Runner = fn(&PreloadedSource, u16, u64) -> (f64, f64);

const SUBSCRIPTIONS: [(&str, Runner); 3] = [
    ("(a) Raw packets [filter: <all>]", run_packets),
    ("(b) TCP connection records [filter: tcp]", run_conns),
    ("(c) TLS handshakes [filter: tls]", run_tls),
];

fn run_packets(source: &PreloadedSource, cores: u16, cycles: u64) -> (f64, f64) {
    let (report, sink) = max_zero_loss_run::<ZcFrame>(
        || {
            let mut f = compile("").unwrap();
            disable_hw(&mut f);
            f
        },
        cores,
        source,
        move |_frame| busy_loop(cycles),
    );
    (report.gbps(), sink)
}

fn run_conns(source: &PreloadedSource, cores: u16, cycles: u64) -> (f64, f64) {
    let (report, sink) = max_zero_loss_run::<ConnRecord>(
        || compile("tcp").unwrap(),
        cores,
        source,
        move |_rec| busy_loop(cycles),
    );
    (report.gbps(), sink)
}

fn run_tls(source: &PreloadedSource, cores: u16, cycles: u64) -> (f64, f64) {
    let (report, sink) = max_zero_loss_run::<TlsHandshakeData>(
        || compile("tls").unwrap(),
        cores,
        source,
        move |_hs| busy_loop(cycles),
    );
    (report.gbps(), sink)
}

/// §6.1 disables hardware filtering for this experiment ("flow sampling
/// cannot be enabled with hardware flow rules"). The runtime decides
/// based on the config, which `run_once` builds; the empty filter
/// installs no rules anyway, and `tcp`/`tls` rules coexist fine with
/// sink sampling in the virtual NIC, so this is a no-op hook kept for
/// methodological symmetry.
fn disable_hw(_f: &mut CompiledFilter) {}
