//! Acceptance test for the rss-hash-keyed sharded conn table: a
//! churn-heavy workload (mass scan SYNs interleaved with graceful
//! conversations) must produce byte-identical
//! [`RunReport::deterministic_digest`]s between the threaded runtime
//! ([`MultiRuntime::run`]) and the virtual-time stepped executor
//! ([`MultiRuntime::run_stepped`]).
//!
//! This is the determinism proof for keying the shard maps with the
//! seeded in-tree [`retina_support::hash::FlowHasher`] over the NIC's
//! symmetric RSS hash: the threaded path uses the hash the virtual NIC
//! stamped on the mbuf, the stepped path stamps the same hash itself
//! (`RssHasher::symmetric().hash_packet`), and every table decision —
//! shard choice, bucket chain, iteration order at drain — is a pure
//! function of those bytes, never of std's per-process SipHash keys or
//! thread scheduling.
//!
//! The workload pins the usual divergence sources: one RX core,
//! `hw_filtering = false`, paced ingest and inline callbacks, so both
//! drivers hand the one core the same frame sequence, and its timeout
//! sweep (after every `SWEEP_EVERY`th frame) falls on the same frames in
//! both. The digest's `conns_retired = expired + drained` merge is for
//! runs whose per-core frame sequences differ: other core counts,
//! hardware drops.

// Test-harness narrowing: fixed 96-byte payload lengths into TCP
// sequence-number arithmetic.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;

use retina_core::runtime::TrafficSource;
use retina_core::subscribables::ConnRecord;
use retina_core::{MultiRuntime, RuntimeBuilder, RuntimeConfig, StepConfig};
use retina_filter::CompiledFilter;
use retina_support::bytes::Bytes;
use retina_wire::build::{build_tcp, TcpSpec};
use retina_wire::TcpFlags;

fn frame(src: SocketAddr, dst: SocketAddr, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> Bytes {
    Bytes::from(build_tcp(&TcpSpec {
        src,
        dst,
        seq,
        ack,
        flags,
        window: 65535,
        ttl: 64,
        payload,
    }))
}

/// Churn workload: `scans` single unanswered SYNs (the mass-scan shape
/// the conn table is built for) interleaved with `convs` graceful
/// conversations, all timestamps fixed functions of the indices.
fn churn_workload(scans: usize, convs: usize) -> Vec<(Bytes, u64)> {
    let server: SocketAddr = "198.51.100.1:443".parse().unwrap();
    let mut out = Vec::new();
    let mut ts = 0u64;
    for s in 0..scans {
        ts += 7_000;
        let scanner: SocketAddr = format!(
            "203.0.{}.{}:{}",
            s / 200,
            (s % 200) + 1,
            40_000 + (s % 20_000)
        )
        .parse()
        .unwrap();
        out.push((frame(scanner, server, 1, 0, TcpFlags::SYN, &[]), ts));
        // A few conversations threaded through the scan storm.
        if convs > 0 && s % (scans / convs.max(1)).max(1) == 0 {
            let client: SocketAddr = format!("10.9.{}.{}:45000", s / 250, (s % 250) + 1)
                .parse()
                .unwrap();
            let (cseq, sseq) = (1000u32, 5000u32);
            let mut push = |f: Bytes| {
                ts += 3_000;
                out.push((f, ts));
            };
            push(frame(client, server, cseq, 0, TcpFlags::SYN, &[]));
            push(frame(
                server,
                client,
                sseq,
                cseq + 1,
                TcpFlags::SYN | TcpFlags::ACK,
                &[],
            ));
            push(frame(
                client,
                server,
                cseq + 1,
                sseq + 1,
                TcpFlags::ACK,
                &[],
            ));
            let data = [0xAB; 96];
            push(frame(
                client,
                server,
                cseq + 1,
                sseq + 1,
                TcpFlags::ACK | TcpFlags::PSH,
                &data,
            ));
            push(frame(
                client,
                server,
                cseq + 1 + data.len() as u32,
                sseq + 1,
                TcpFlags::FIN | TcpFlags::ACK,
                &[],
            ));
            push(frame(
                server,
                client,
                sseq + 1,
                cseq + 2 + data.len() as u32,
                TcpFlags::FIN | TcpFlags::ACK,
                &[],
            ));
            push(frame(
                client,
                server,
                cseq + 2 + data.len() as u32,
                sseq + 2,
                TcpFlags::ACK,
                &[],
            ));
        }
    }
    out
}

/// Feeds every frame in one ordered batch (the stepped run's implicit
/// ingest order).
struct Seq(Vec<(Bytes, u64)>);

impl TrafficSource for Seq {
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
        if self.0.is_empty() {
            return false;
        }
        out.append(&mut self.0);
        true
    }
}

fn build_runtime() -> MultiRuntime<CompiledFilter> {
    let config = RuntimeConfig {
        hw_filtering: false,
        ..RuntimeConfig::default()
    };
    RuntimeBuilder::new(config)
        .subscribe_named("conns", "tcp", |_c: ConnRecord| {})
        .build()
        .expect("runtime builds")
}

#[test]
fn threaded_and_stepped_digests_identical_under_churn() {
    let packets = churn_workload(800, 40);

    let mut threaded_rt = build_runtime();
    let threaded = threaded_rt.run(Seq(packets.clone()));
    threaded.check_accounting().expect("threaded accounting");
    assert!(
        threaded.cores.conns_created >= 800,
        "every scan SYN creates a connection"
    );

    for seed in [0u64, 7, 99] {
        let stepped = build_runtime().run_stepped(&packets, &StepConfig::seeded(seed));
        stepped.check_accounting().expect("stepped accounting");
        assert_eq!(
            stepped.deterministic_digest(),
            threaded.deterministic_digest(),
            "digest diverged between threaded and stepped (seed {seed})"
        );
    }
}

#[test]
fn threaded_runs_replay_bit_for_bit() {
    let packets = churn_workload(500, 25);
    let a = build_runtime().run(Seq(packets.clone()));
    let b = build_runtime().run(Seq(packets));
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    // The peak-connections gauge is deterministic for single-core runs:
    // both replays saw the same insert/expiry sequence.
    assert_eq!(a.cores.conns_peak, b.cores.conns_peak);
    assert!(a.cores.conns_peak > 0);
}
