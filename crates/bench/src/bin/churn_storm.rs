//! Churn storm: million-flow connection-table stress under a scan-heavy
//! campus mix, exercising the sharded / arena-backed / hierarchically
//! timed conn table end to end.
//!
//! The workload compresses the campus mix into a few simulated seconds
//! and pushes the single-SYN (scan) fraction to ~97%, so nearly every
//! packet creates a new connection that then sits in the table until the
//! 5 s establishment timeout or the end-of-run drain — the worst case
//! for table churn and timer pressure the paper's Table 2 motivates
//! (~65% of real TCP connections are single unanswered SYNs). The scan
//! sweeps twice, the second wave after the first has timed out, so the
//! second wave's connections land in the slots the first wave freed.
//!
//! Invariants, each an exit code (timings live in `benchmark/`):
//!
//! 1. **Stepped run**: `RunReport::check_accounting` holds exactly
//!    (`created == discarded + terminated + expired + drained`), and a
//!    second schedule seed reproduces the digest, the peak and the
//!    arena bytes.
//! 2. **Bounded state**: the connection arena and its index hold at most
//!    `2 × peak × (bytes per slot + bytes per index entry)` — capacity
//!    doubles, so a table that reuses freed slots never needs more.
//! 3. **Threaded run**: the same accounting through the real multi-core
//!    runtime.
//! 4. **Index chains**: over a table keyed with the hashes the system
//!    ships with — `RssHasher::symmetric()`, 16 bits of entropy — the
//!    longest index chain must not exceed 2 (an index that goes back to
//!    relying on the RSS hash fails here).
//!
//! Full mode must sustain >= 1M concurrent flows; `--quick` runs the
//! same shape at CI size.

// Bench-harness narrowing: synthetic addresses are built from loop
// counters that fit their compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::process::exit;

use retina_bench::bench_args;
use retina_conntrack::{ConnArena, ConnHandle, ConnKey, ConnTable, FiveTuple, TimeoutConfig};
use retina_core::subscribables::ConnRecord;
use retina_core::{RuntimeBuilder, RuntimeConfig, StepConfig};
use retina_nic::rss::RssHasher;
use retina_support::bytes::Bytes;
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

/// Gap between the two scan waves: past the 5 s establishment timeout,
/// so the first wave has expired before the second arrives.
const WAVE_GAP_NS: u64 = 10_000_000_000;

/// The storm twice, the second wave shifted past the first's timeouts.
fn two_waves(wave: Vec<(Bytes, u64)>) -> Vec<(Bytes, u64)> {
    let shift = wave.last().map_or(0, |(_, ts)| ts + WAVE_GAP_NS);
    let second: Vec<_> = wave.iter().map(|(f, ts)| (f.clone(), ts + shift)).collect();
    let mut packets = wave;
    packets.extend(second);
    packets
}

/// Bytes one arena slot costs: the slot of a tracker connection at its
/// build-time budget (`size_of::<Conn>() <= 360`, `tracker/mod.rs`),
/// plus its free-list entry.
const SLOT_BYTES: usize = ConnArena::<[u64; 45]>::SLOT_BYTES + std::mem::size_of::<u32>();

/// Bytes one index entry costs: a `(index key, handle)` pair plus its
/// control byte, as `ConnTable::allocated_bytes` counts it.
const INDEX_ENTRY_BYTES: usize = std::mem::size_of::<(u64, ConnHandle)>() + 1;

fn build_runtime(cores: u16) -> retina_core::MultiRuntime<retina_filter::CompiledFilter> {
    let mut config = RuntimeConfig::with_cores(cores);
    config.paced_ingest = false;
    config.device.ring_capacity = 8192;
    RuntimeBuilder::new(config)
        .subscribe_named("conns", "tcp", |_rec: ConnRecord| {})
        .build()
        .expect("runtime builds")
}

/// The longest index chain of a table holding `n` live connections keyed
/// with their real symmetric RSS hashes; every key must be found again.
fn longest_chain(n: usize) -> usize {
    let rss = RssHasher::symmetric();
    let mut table: ConnTable<u64> = ConnTable::new(TimeoutConfig::retina_default());
    let resp: std::net::SocketAddr = "1.1.1.1:443".parse().unwrap();
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let orig = std::net::SocketAddr::new(
            std::net::IpAddr::V4(std::net::Ipv4Addr::from(0x0a00_0000 + i as u32)),
            40_000,
        );
        let key = ConnKey::new(orig, resp, 6);
        let hash = rss.hash_tuple(&orig.ip(), &resp.ip(), orig.port(), resp.port());
        let tuple = FiveTuple {
            orig,
            resp,
            proto: 6,
        };
        table.get_or_insert_with(hash, key, i as u64 * 1_000, || (tuple, 0u64));
        keys.push((hash, key));
    }
    for (hash, key) in &keys {
        if table.get_mut(*hash, key).is_none() {
            fail("an inserted connection was not found again");
        }
    }
    table.longest_chain()
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
    let packets = two_waves(generate(&storm_config(target)));
    println!(
        "churn storm: {} packets in two scan waves (scan-heavy mix)",
        packets.len()
    );

    // 1. Deterministic stepped run.
    let report = build_runtime(1).run_stepped(&packets, &StepConfig::seeded(7));
    if let Err(msg) = report.check_accounting() {
        fail(&format!("stepped accounting violated: {msg}"));
    }
    let created = report.cores.conns_created;
    let peak = report.cores.conns_peak;
    let arena_bytes = report.conn_arena_bytes;
    println!(
        "  stepped: {created} conns created, peak {peak} concurrent, \
         arena high-water {:.1} MB ({:.0}s sim)",
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

    // 2. Bounded state: the arena reuses what expiry freed.
    let bound = 2 * peak as usize * (SLOT_BYTES + INDEX_ENTRY_BYTES);
    println!(
        "  state: {:.0} B per peak connection (bound {} = 2 x ({SLOT_BYTES} B slot + \
         {INDEX_ENTRY_BYTES} B index entry))",
        arena_bytes as f64 / peak.max(1) as f64,
        2 * (SLOT_BYTES + INDEX_ENTRY_BYTES),
    );
    if arena_bytes > bound {
        fail(&format!(
            "arena holds {arena_bytes} B at a peak of {peak} connections (bound {bound} B)"
        ));
    }

    // 3. Threaded run: the same accounting on real threads.
    let threaded = build_runtime(2).run(PreloadedSource::new(packets));
    if let Err(msg) = threaded.check_accounting() {
        fail(&format!("threaded accounting violated: {msg}"));
    }
    println!(
        "  threaded: {} conns created on 2 cores, accounting exact",
        threaded.cores.conns_created
    );

    // 4. Index chains at scale.
    let lookup_n = if args.quick { 50_000 } else { 200_000 };
    let chain = longest_chain(lookup_n);
    println!("  index over {lookup_n} live conns (real RSS hashes): longest chain {chain}");
    if chain > 2 {
        fail(&format!(
            "index chains up to {chain} long at {lookup_n} connections: \
             the index key must not rely on the 16-bit symmetric RSS hash"
        ));
    }

    println!(
        "churn storm OK: accounting exact, peak {peak} concurrent, \
         arena high-water {:.1} MB",
        arena_bytes as f64 / 1e6
    );
}
