//! Criterion microbenchmarks for the substrate components on the hot
//! path: packet parsing, RSS hashing, TLS parsing, connection-table and
//! timer-wheel operations, and the two reassembly designs (Retina's
//! pass-through vs. the eager copy-based ablation).

// Narrowing casts in this file are intentional: test and bench harnesses narrow seeded draws and counter math to compact fields.
#![allow(clippy::cast_possible_truncation)]

use retina_support::bench::{Criterion, Throughput};
use retina_support::{criterion_group, criterion_main};
use std::hint::black_box;

use retina_conntrack::{ConnKey, ConnTable, StreamReassembler, TimeoutConfig, TimerWheel};
use retina_nic::{Mbuf, RssHasher};
use retina_protocols::tls::build::{client_hello_record, ClientHelloSpec};
use retina_protocols::{ConnParser, Direction};
use retina_wire::build::{build_tcp, TcpSpec};
use retina_wire::{ParsedPacket, TcpFlags};

fn sample_frame(payload_len: usize) -> Vec<u8> {
    build_tcp(&TcpSpec {
        src: "171.64.1.2:40000".parse().unwrap(),
        dst: "93.184.216.34:443".parse().unwrap(),
        seq: 1000,
        ack: 2000,
        flags: TcpFlags::ACK | TcpFlags::PSH,
        window: 65535,
        ttl: 64,
        payload: &vec![0xAB; payload_len],
    })
}

fn bench_parse(c: &mut Criterion) {
    let frame = sample_frame(1460);
    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.bench_function("parse_packet_1460B", |b| {
        b.iter(|| ParsedPacket::parse(black_box(&frame)).unwrap());
    });
    group.finish();
}

fn bench_rss(c: &mut Criterion) {
    let frame = sample_frame(0);
    let pkt = ParsedPacket::parse(&frame).unwrap();
    let hasher = RssHasher::symmetric();
    c.bench_function("rss/toeplitz_v4_tuple", |b| {
        b.iter(|| hasher.hash_packet(black_box(&pkt)));
    });
}

fn bench_tls_parse(c: &mut Criterion) {
    let ch = client_hello_record(&ClientHelloSpec {
        sni: Some("edge-042.cdn.example.com".into()),
        ciphers: vec![0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f],
        random: [7; 32],
        version: 0x0303,
        alpn: Some("h2".into()),
    });
    let mut group = c.benchmark_group("tls");
    group.throughput(Throughput::Bytes(ch.len() as u64));
    group.bench_function("probe_client_hello", |b| {
        let parser = retina_protocols::tls::TlsParser::new();
        b.iter(|| parser.probe(black_box(&ch), Direction::ToServer));
    });
    group.bench_function("parse_client_hello", |b| {
        b.iter(|| {
            let mut parser = retina_protocols::tls::TlsParser::new();
            parser.parse(black_box(&ch), Direction::ToServer)
        });
    });
    group.finish();
}

fn bench_conn_table(c: &mut Criterion) {
    let keys: Vec<ConnKey> = (0..4096u32)
        .map(|i| {
            let frame = build_tcp(&TcpSpec {
                src: format!("10.{}.{}.{}:40000", i >> 16, (i >> 8) & 0xff, i & 0xff)
                    .parse()
                    .unwrap(),
                dst: "1.1.1.1:443".parse().unwrap(),
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 64,
                ttl: 64,
                payload: b"",
            });
            ConnKey::from_packet(&ParsedPacket::parse(&frame).unwrap())
        })
        .collect();
    let tuples: Vec<retina_conntrack::FiveTuple> = (0..4096u32)
        .map(|i| retina_conntrack::FiveTuple {
            orig: format!("10.{}.{}.{}:40000", i >> 16, (i >> 8) & 0xff, i & 0xff)
                .parse()
                .unwrap(),
            resp: "1.1.1.1:443".parse().unwrap(),
            proto: 6,
        })
        .collect();

    // The hash the NIC model stamps: symmetric Toeplitz, 16 bits of
    // entropy — what the index actually has to cope with.
    let rss = RssHasher::symmetric();
    let hashes: Vec<u32> = tuples
        .iter()
        .map(|t| rss.hash_tuple(&t.orig.ip(), &t.resp.ip(), t.orig.port(), t.resp.port()))
        .collect();

    c.bench_function("conntrack/insert_4096", |b| {
        b.iter(|| {
            let mut table: ConnTable<u32> = ConnTable::new(TimeoutConfig::retina_default());
            for (i, (key, tuple)) in keys.iter().zip(&tuples).enumerate() {
                table.get_or_insert_with(hashes[i], *key, i as u64 * 1000, || (*tuple, 0u32));
            }
            black_box(table.len())
        });
    });
    c.bench_function("conntrack/lookup_hit", |b| {
        let mut table: ConnTable<u32> = ConnTable::new(TimeoutConfig::retina_default());
        for (i, (key, tuple)) in keys.iter().zip(&tuples).enumerate() {
            table.get_or_insert_with(hashes[i], *key, i as u64 * 1000, || (*tuple, 0u32));
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(table.get_mut(hashes[i], &keys[i]).is_some())
        });
    });
}

fn bench_timer_wheel(c: &mut Criterion) {
    c.bench_function("timerwheel/schedule_advance_1024", |b| {
        b.iter(|| {
            let mut wheel = TimerWheel::new(100_000_000, 256);
            for token in 0..1024u64 {
                wheel.schedule(token, (token + 1) * 50_000_000);
            }
            let mut out = Vec::new();
            wheel.advance(60_000_000_000, &mut out);
            black_box(out.len())
        });
    });
}

/// The §5.2 ablation: pass-through reordering (Retina) vs. copy-based
/// stream buffering (traditional IDS) on an in-order segment train.
fn bench_reassembly_designs(c: &mut Criterion) {
    const SEGMENTS: usize = 64;
    let payload = vec![0x5Au8; 1460];
    let mbuf = Mbuf::from_bytes(retina_support::bytes::Bytes::from(sample_frame(1460)));
    let mut group = c.benchmark_group("reassembly_64x1460B_inorder");
    group.throughput(Throughput::Bytes((SEGMENTS * 1460) as u64));
    group.bench_function("retina_passthrough", |b| {
        b.iter(|| {
            let mut r = StreamReassembler::new(500);
            r.init_seq(0);
            for i in 0..SEGMENTS as u32 {
                black_box(r.offer(i * 1460, 1460, &mbuf));
            }
            black_box(r.next_seq())
        });
    });
    group.bench_function("eager_copy", |b| {
        b.iter(|| {
            let mut buf = retina_baselines::eager::StreamBuf::default();
            for i in 0..SEGMENTS as u32 {
                buf.add(i * 1460, black_box(&payload));
            }
            black_box(buf.data.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_rss,
    bench_tls_parse,
    bench_conn_table,
    bench_timer_wheel,
    bench_reassembly_designs
);
criterion_main!(benches);
