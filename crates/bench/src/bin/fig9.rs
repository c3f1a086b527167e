//! Figure 9: CDF of byte counts up/down for video sessions from Netflix
//! and YouTube (§7.3's feature-extraction application), followed by the
//! multicore callback-dispatch scaling experiment.
//!
//! Runs the video-features pipeline (TCP connection records filtered on
//! the services' TLS server names, aggregated into sessions) over the
//! streaming workload and prints the four CDFs. Byte volumes are scaled
//! down ~10x from production values (see EXPERIMENTS.md); the
//! distributional shape and Netflix-vs-YouTube ordering are preserved.
//!
//! The scaling section runs the merged four-subscription union with a
//! synthetic per-callback cost sweep, inline vs dedicated-dispatch,
//! across core counts: per-delivery RX-core cycles must stay flat under
//! dispatch as the callback cost grows (the cost moves to the workers),
//! and results must be identical everywhere; the exit code gates both.
//! Wall-clock throughput is printed for reading only.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use retina_bench::{bench_args, gbps, percentiles, rule, stream_bytes, BenchArgs};
use retina_core::subscribables::{
    ConnRecord, DnsTransactionData, HttpTransactionData, TlsHandshakeData,
};
use retina_core::{compile, DispatchMode, Runtime, RuntimeBuilder, RuntimeConfig};
use retina_support::bytes::Bytes;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::video::{VideoConfig, VideoWorkload};
use retina_trafficgen::PreloadedSource;

/// Per-(responder IP, is-netflix) up/down byte totals, shared with the
/// runtime callback.
type ByteAgg = Arc<Mutex<HashMap<(IpAddr, bool), (u64, u64)>>>;

fn main() {
    let args = bench_args();
    let sessions = if args.quick { 40 } else { 150 };
    println!("generating {sessions} Netflix + {sessions} YouTube sessions...");
    let workload = VideoWorkload::generate(&VideoConfig {
        netflix_sessions: sessions,
        youtube_sessions: sessions,
        ..VideoConfig::default()
    });
    println!("workload: {} packets\n", workload.packets.len());

    let agg: ByteAgg = Arc::new(Mutex::new(HashMap::new()));
    let sink = Arc::clone(&agg);
    let filter_src =
        r"tcp.port = 443 and (tls.sni ~ '(.+?\.)?nflxvideo\.net' or tls.sni ~ 'googlevideo')";
    let mut runtime = Runtime::<ConnRecord, _>::new(
        RuntimeConfig::with_cores(1),
        compile(filter_src).unwrap(),
        move |rec: ConnRecord| {
            let is_netflix = matches!(rec.tuple.resp.ip(), IpAddr::V4(v4) if v4.octets()[0] == 198);
            let mut sessions = sink.lock().unwrap();
            let e = sessions
                .entry((rec.tuple.orig.ip(), is_netflix))
                .or_insert((0, 0));
            e.0 += rec.bytes_up;
            e.1 += rec.bytes_down;
        },
    )
    .expect("runtime");
    let report = runtime.run(workload.source());

    let agg = agg.lock().unwrap();
    let mb = |b: u64| b as f64 / 1e6;
    let mut nf_up = Vec::new();
    let mut nf_down = Vec::new();
    let mut yt_up = Vec::new();
    let mut yt_down = Vec::new();
    for ((_, is_netflix), (up, down)) in agg.iter() {
        if *is_netflix {
            nf_up.push(mb(*up));
            nf_down.push(mb(*down));
        } else {
            yt_up.push(mb(*up));
            yt_down.push(mb(*down));
        }
    }

    println!(
        "reconstructed {} netflix + {} youtube sessions (zero loss: {})\n",
        nf_down.len(),
        yt_down.len(),
        report.zero_loss()
    );
    let pcts = [5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0];
    println!("Figure 9: CDF of per-session MBytes (columns: percentile)");
    print!("{:<16}", "series");
    for p in pcts {
        print!("{:>9}", format!("p{p:.0}"));
    }
    println!();
    rule(16 + 9 * pcts.len());
    for (name, values) in [
        ("Netflix Up", nf_up),
        ("YouTube Up", yt_up),
        ("Netflix Down", nf_down),
        ("YouTube Down", yt_down),
    ] {
        print!("{name:<16}");
        for (_, v) in percentiles(values, &pcts) {
            print!("{v:>9.3}");
        }
        println!();
    }
    println!(
        "\nexpected shape (paper): Up curves sit 1-2 orders of magnitude left\n\
         of Down curves; Netflix Down sits right of YouTube Down."
    );

    scaling(&args);
}

/// Synthetic per-callback cost: `units` rounds of dependency-chained
/// arithmetic the optimizer cannot remove, so "expensive analysis" is
/// cycle-denominated rather than wall-clock-denominated.
fn spin(units: u64) {
    let mut acc = 0u64;
    for i in 0..units * 64 {
        acc = std::hint::black_box(acc.wrapping_mul(0x9E37_79B9).wrapping_add(i));
    }
    std::hint::black_box(acc);
}

/// Runs the merged four-subscription union over `packets` with a
/// per-callback cost of `units`, either inline or dedicated-dispatched,
/// returning (per-sub delivered counts, avg RX-core cycles per
/// delivery, wall-clock Gbps).
fn run_union(
    packets: &[(Bytes, u64)],
    cores: u16,
    mode: DispatchMode,
    units: u64,
) -> ([u64; 4], f64, f64) {
    let mut config = RuntimeConfig::with_cores(cores);
    config.paced_ingest = true; // the sweep measures work, not loss
    config.profile_stages = true;
    let counts: Arc<[AtomicU64; 4]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let (c0, c1, c2, c3) = (
        Arc::clone(&counts),
        Arc::clone(&counts),
        Arc::clone(&counts),
        Arc::clone(&counts),
    );
    let mut rt = RuntimeBuilder::new(config)
        .subscribe_dispatched::<TlsHandshakeData>("tls", "tls", mode, move |_| {
            spin(units);
            c0[0].fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_dispatched::<HttpTransactionData>("http", "http", mode, move |_| {
            spin(units);
            c1[1].fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_dispatched::<DnsTransactionData>("dns", "dns", mode, move |_| {
            spin(units);
            c2[2].fetch_add(1, Ordering::Relaxed);
        })
        .subscribe_dispatched::<ConnRecord>("conns", "ipv4 and tcp", mode, move |_| {
            spin(units);
            c3[3].fetch_add(1, Ordering::Relaxed);
        })
        .build()
        .expect("union runtime");
    let report = rt.run(PreloadedSource::new(packets.to_vec()));
    if !report.zero_loss() {
        eprintln!("fig9 scaling FAILED: union run lost packets");
        std::process::exit(1);
    }
    if let Err(msg) = report.check_accounting() {
        eprintln!("fig9 scaling FAILED: accounting: {msg}");
        std::process::exit(1);
    }
    let delivered = std::array::from_fn(|i| report.subs[i].delivered);
    // The callbacks stage is timed on the RX core around `deliver`: the
    // full callback inline, only the ring handoff when dispatched.
    let cb = &report.cores.callbacks;
    let rx_cycles = cb.cycles as f64 / cb.runs.max(1) as f64;
    let rate = gbps(
        stream_bytes(packets),
        report.elapsed.as_secs_f64().max(1e-9),
    );
    (delivered, rx_cycles, rate)
}

/// The dispatch-scaling experiment behind the figure's second panel.
fn scaling(args: &BenchArgs) {
    let packets = generate(&CampusConfig {
        target_packets: if args.quick {
            8_000
        } else {
            args.packets.min(60_000)
        },
        duration_secs: 10.0,
        ..CampusConfig::default()
    });
    println!(
        "\nFigure 9 (scaling): merged 4-subscription union, callback cost sweep\n\
         workload: {} packets",
        packets.len()
    );

    // Cost sweep at a fixed core count: RX-core cycles per delivery
    // grow with cost when inline, stay flat under dedicated dispatch.
    let costs = [0u64, 8, 64];
    println!(
        "\n{:<26}{:>14}{:>16}{:>12}",
        "series", "cost (units)", "RX cyc/deliver", "Gbps"
    );
    rule(26 + 14 + 16 + 12);
    let mut baseline: Option<[u64; 4]> = None;
    let mut results_match = true;
    let mut inline_hi = 0.0f64;
    let mut disp_hi = 0.0f64;
    let mut disp_lo = 0.0f64;
    for &units in &costs {
        for (name, mode) in [
            ("inline", DispatchMode::Inline),
            ("dedicated", DispatchMode::dedicated(256)),
        ] {
            let (delivered, rx_cycles, rate) = run_union(&packets, 2, mode, units);
            println!("{name:<26}{units:>14}{rx_cycles:>16.0}{rate:>12.3}");
            match &baseline {
                None => baseline = Some(delivered),
                Some(b) => results_match &= *b == delivered,
            }
            match (name, units) {
                ("inline", u) if u == costs[2] => inline_hi = rx_cycles,
                ("dedicated", 0) => disp_lo = rx_cycles,
                ("dedicated", u) if u == costs[2] => disp_hi = rx_cycles,
                _ => {}
            }
        }
    }
    // Flat = the RX-side handoff cost under the heaviest callback stays
    // far below the inline callback cost, and within a small factor of
    // the zero-cost handoff.
    let rx_flat = disp_hi * 4.0 < inline_hi && disp_hi < disp_lo.max(1.0) * 8.0;

    // Core sweep at the heaviest cost, dispatched: the union keeps
    // delivering identical results as RX cores scale (throughput is
    // wall-clock and machine-dependent, so it records but never gates).
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut sweep: Vec<u16> = vec![1, 2, 4, 8];
    sweep.retain(|&c| usize::from(c) <= host.max(2) * 2);
    println!(
        "\n{:<26}{:>14}{:>12}",
        "cores (dedicated, cost 64)", "", "Gbps"
    );
    rule(26 + 14 + 12);
    for &cores in &sweep {
        let (delivered, _, rate) =
            run_union(&packets, cores, DispatchMode::dedicated(256), costs[2]);
        results_match &= baseline == Some(delivered);
        println!("{cores:<26}{:>14}{rate:>12.3}", "");
    }

    println!(
        "\nexpected shape (paper): dispatched RX work per delivery is flat in\n\
         callback cost (flat: {rx_flat}), and the merged union scales with RX\n\
         cores while results stay identical (match: {results_match})."
    );
    if !rx_flat || !results_match {
        eprintln!("fig9 scaling FAILED: rx_flat={rx_flat} results_match={results_match}");
        std::process::exit(1);
    }
}
