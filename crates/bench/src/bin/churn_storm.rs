//! Churn storm: million-flow connection-table stress under a scan-heavy
//! campus mix, exercising the sharded / arena-backed / hierarchically
//! timed conn table end to end.
//!
//! The workload compresses the campus mix into a few simulated seconds
//! and pushes the single-SYN (scan) fraction to ~97%, so nearly every
//! packet creates a new connection that then sits in the table until the
//! 5 s establishment timeout or the end-of-run drain — the worst case
//! for table churn and timer pressure the paper's Table 2 motivates
//! (~65% of real TCP connections are single unanswered SYNs).
//!
//! Three measurements, one exact-accounting check:
//!
//! 1. **Deterministic stepped run** (gate source): `run_stepped` over
//!    the seeded workload yields schedule-independent counters — peak
//!    concurrent connections, connections created, and the
//!    connection-arena memory high-water (the bench gate's first memory
//!    key). `RunReport::check_accounting` must hold exactly:
//!    `created == discarded + terminated + expired + drained`.
//! 2. **Threaded run** (record-only): wall-clock conns/sec of setup +
//!    teardown through the real multi-core runtime.
//! 3. **Lookup micro-bench**: rdtsc cycles per `ConnTable::get_mut` hit
//!    at scale, p50/p99 (record-only), over a table keyed with the
//!    hashes the system ships with — `RssHasher::symmetric()`, 16 bits of
//!    entropy — whose longest index chain must not exceed 2 (gated: an
//!    index that goes back to relying on the RSS hash fails here).
//!
//! Full mode must sustain >= 1M concurrent flows; `--quick` runs the
//! same shape at CI size. Exits non-zero on any violation.

// Bench-harness narrowing: synthetic addresses are built from loop
// counters that fit their compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::process::exit;

use retina_bench::{bench_args, ci, percentiles, timed};
use retina_conntrack::{ConnKey, ConnTable, FiveTuple, TimeoutConfig};
use retina_core::subscribables::ConnRecord;
use retina_core::util::rdtsc;
use retina_core::{RuntimeBuilder, RuntimeConfig, StepConfig};
use retina_nic::rss::RssHasher;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

fn fail(msg: &str) -> ! {
    eprintln!("churn storm FAILED: {msg}");
    exit(1);
}

/// The scan-storm mix: almost every TCP connection is a single
/// unanswered SYN, all arriving inside the 5 s establishment timeout so
/// the table must hold every probe simultaneously.
fn storm_config(target_packets: usize) -> CampusConfig {
    CampusConfig {
        seed: 0xC4A5,
        target_packets,
        duration_secs: 4.0,
        tcp_frac: 0.96,
        udp_frac: 0.03,
        single_syn_frac: 0.995,
        tls_bytes_median: 2_000.0,
        ..CampusConfig::default()
    }
}

fn build_runtime(cores: u16) -> retina_core::MultiRuntime<retina_filter::CompiledFilter> {
    let mut config = RuntimeConfig::with_cores(cores);
    config.paced_ingest = false;
    config.device.ring_capacity = 8192;
    RuntimeBuilder::new(config)
        .subscribe_named("conns", "tcp", |_rec: ConnRecord| {})
        .build()
        .expect("runtime builds")
}

/// rdtsc cycles per `get_mut` hit (p50, p99) over a table of `n` live
/// connections keyed with their real symmetric RSS hashes, visiting keys
/// in a strided (cache-hostile) order; plus the table's longest index
/// chain at that size.
fn lookup_cycles(n: usize) -> (f64, f64, usize) {
    let rss = RssHasher::symmetric();
    let mut table: ConnTable<u64> = ConnTable::new(TimeoutConfig::retina_default());
    let mut keys = Vec::with_capacity(n);
    let mut hashes = Vec::with_capacity(n);
    for i in 0..n {
        let orig = std::net::SocketAddr::new(
            std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0a00_0000 + i as u32)),
            40_000,
        );
        let resp: std::net::SocketAddr = "1.1.1.1:443".parse().unwrap();
        let key = ConnKey::new(orig, resp, 6);
        let hash = rss.hash_tuple(&orig.ip(), &resp.ip(), orig.port(), resp.port());
        let tuple = FiveTuple {
            orig,
            resp,
            proto: 6,
        };
        table.get_or_insert_with(hash, key, i as u64 * 1_000, || (tuple, 0u64));
        keys.push(key);
        hashes.push(hash);
    }
    let mut samples = Vec::with_capacity(n);
    let mut idx = 0usize;
    for _ in 0..n {
        idx = (idx + 0x9E37_79B1) % n; // golden-ratio stride
        let t0 = rdtsc();
        let hit = table.get_mut(hashes[idx], &keys[idx]).is_some();
        let t1 = rdtsc();
        assert!(hit, "every key was inserted");
        samples.push(t1.wrapping_sub(t0) as f64);
    }
    let pts = percentiles(samples, &[50.0, 99.0]);
    (pts[0].1, pts[1].1, table.longest_chain())
}

#[allow(clippy::cast_precision_loss)]
fn main() {
    let args = bench_args();
    // Full mode targets >1M concurrent flows; --quick keeps the same
    // shape at CI size (bench_args caps quick runs at 80k packets).
    let target = if args.quick {
        args.packets
    } else {
        args.packets.max(2_000_000)
    };
    let (packets, gen_secs) = timed(|| generate(&storm_config(target)));
    let offered = packets.len();
    println!("churn storm: {offered} packets generated in {gen_secs:.1}s (scan-heavy mix)");

    // 1. Deterministic stepped run: the gate source.
    let stepped_rt = build_runtime(1);
    let (report, stepped_secs) = timed(|| stepped_rt.run_stepped(&packets, &StepConfig::seeded(7)));
    if let Err(msg) = report.check_accounting() {
        fail(&format!("stepped accounting violated: {msg}"));
    }
    let created = report.cores.conns_created;
    let peak = report.cores.conns_peak;
    let arena_bytes = report.conn_arena_bytes;
    println!(
        "  stepped: {created} conns created, peak {peak} concurrent, \
         arena high-water {:.1} MB ({:.0}s sim in {stepped_secs:.1}s)",
        arena_bytes as f64 / 1e6,
        report.sim_duration_ns as f64 / 1e9,
    );
    if !args.quick && peak < 1_000_000 {
        fail(&format!(
            "full mode must sustain >= 1M concurrent flows, peak was {peak}"
        ));
    }
    // Replay check: the stepped run is schedule-independent — a second
    // seed must reproduce the digest, the peak, and the arena bytes.
    let replay = build_runtime(1).run_stepped(&packets, &StepConfig::seeded(1234));
    if replay.deterministic_digest() != report.deterministic_digest() {
        fail("stepped digest varies with the schedule seed");
    }
    if replay.cores.conns_peak != peak || replay.conn_arena_bytes != arena_bytes {
        fail("stepped peak/arena bytes vary with the schedule seed");
    }

    // 2. Threaded run: wall-clock setup + teardown rate.
    let mut threaded_rt = build_runtime(2);
    let src = PreloadedSource::new(packets);
    let threaded = threaded_rt.run(src);
    if let Err(msg) = threaded.check_accounting() {
        fail(&format!("threaded accounting violated: {msg}"));
    }
    let retired = threaded.cores.conns_discarded
        + threaded.cores.conns_terminated
        + threaded.cores.conns_expired
        + threaded.cores.conns_drained;
    let churn_events = threaded.cores.conns_created + retired;
    let conns_per_sec = churn_events as f64 / threaded.elapsed.as_secs_f64().max(1e-9);
    println!(
        "  threaded: {} created + {retired} retired in {:.2}s = {:.0} conn events/sec \
         (2 cores, arena high-water {:.1} MB)",
        threaded.cores.conns_created,
        threaded.elapsed.as_secs_f64(),
        conns_per_sec,
        threaded.conn_arena_bytes as f64 / 1e6,
    );

    // 3. Lookup micro-bench at scale.
    let lookup_n = if args.quick { 50_000 } else { 200_000 };
    let (p50, p99, longest_chain) = lookup_cycles(lookup_n);
    println!(
        "  lookup over {lookup_n} live conns (real RSS hashes): p50 {p50:.0} cycles, \
         p99 {p99:.0} cycles, longest index chain {longest_chain}"
    );
    if longest_chain > 2 {
        fail(&format!(
            "index chains up to {longest_chain} long at {lookup_n} connections: \
             the index key must not rely on the 16-bit symmetric RSS hash"
        ));
    }

    println!(
        "churn storm OK: accounting exact, peak {peak} concurrent, \
         arena high-water {:.1} MB",
        arena_bytes as f64 / 1e6
    );

    if let Some(path) = &args.json_out {
        // Gated keys come from the stepped run (schedule-independent:
        // counters, peak, and the arena memory high-water — the gate's
        // first memory key). Wall-clock and cycle numbers are
        // record-only ("_" prefix).
        let metrics: Vec<(&str, f64)> = vec![
            ("packets", offered as f64),
            ("conns_created", created as f64),
            ("conns_peak", peak as f64),
            ("arena_high_water_bytes", arena_bytes as f64),
            ("accounting_ok", 1.0),
            (
                "longest_chain_le_2",
                f64::from(u8::from(longest_chain <= 2)),
            ),
            ("_conns_per_sec", conns_per_sec),
            ("_lookup_p50_cycles", p50),
            ("_lookup_p99_cycles", p99),
            ("_stepped_secs", stepped_secs),
        ];
        if let Err(e) = ci::merge_section(path, "churn_storm", &metrics) {
            fail(&format!("writing {path}: {e}"));
        }
        println!("  metrics merged into {path}");
        ci::print_gate_keys("churn_storm", &metrics);
    }
}
