//! The five workloads: seeded traffic × subscription set × driver.
//!
//! Each exists because it makes a different layer do most of the work
//! (the `why` strings are the ones in `BENCHMARK.json`). The program
//! under test receives only the generated packets; the seed never
//! reaches it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use retina_conntrack::ConnKey;

use retina_core::subscribables::{
    ConnBytes, ConnRecord, HttpTransactionData, SessionRecord, TlsHandshakeData, ZcFrame,
};
use retina_core::{CompiledFilter, MultiRuntime, ParsedPacket, RuntimeBuilder, RuntimeConfig};
use retina_filter::FilterUnion;
use retina_support::bytes::Bytes;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::rng::Sampler;
use retina_trafficgen::HttpsWorkload;

/// Timestamped frames, pre-materialised before any timing starts.
pub type Packets = Vec<(Bytes, u64)>;

/// What a subscription's callback receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datatype {
    /// Raw frames (packet level, bypasses conntrack).
    ZcFrame,
    /// Connection records.
    ConnRecord,
    /// Reconstructed byte streams.
    ConnBytes,
    /// Parsed TLS handshakes.
    Tls,
    /// Parsed HTTP transactions.
    Http,
    /// Any parsed session.
    Session,
}

/// One subscription of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Sub {
    /// Telemetry name (`sub_digest` key).
    pub name: &'static str,
    /// Filter source.
    pub filter: &'static str,
    /// Delivered datatype.
    pub datatype: Datatype,
}

/// Which public one-thread driver the end-to-end repetitions time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `RuntimeBuilder` → `MultiRuntime::run_stepped`.
    Stepped,
    /// Packets written to and read back from an in-memory pcap, then
    /// `run_offline` (single subscription).
    Offline,
}

/// What every callback folds its deliveries into: a count and an
/// order-independent checksum of the delivered content, so two drivers
/// (or two schedules) can be compared on *what* they delivered. Two
/// relaxed adds per delivery — cheap enough to sit inside the timing.
#[derive(Debug, Default)]
pub struct Sink {
    count: AtomicU64,
    sum: AtomicU64,
}

impl Sink {
    fn note(&self, value: u64) {
        // Statistics only; read after the run's threads are joined.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Reads and clears `(deliveries, checksum)`.
    pub fn take(&self) -> (u64, u64) {
        (
            self.count.swap(0, Ordering::Relaxed),
            self.sum.swap(0, Ordering::Relaxed),
        )
    }
}

fn tls_value(hs: &TlsHandshakeData) -> u64 {
    hs.tls.sni().len() as u64 + u64::from(hs.tls.cipher) + u64::from(hs.tuple.orig.port())
}

/// Declares a workload's filter sources once, as both the runtime list
/// and the statically generated `filter_union!` of the same sources
/// (the `filter.packet_codegen_ns_per_pkt` comparison). `tt` fragments
/// reach the proc macro as the bare literals it parses by hand.
macro_rules! filter_set {
    ($srcs:ident, $codegen:ident, $($src:tt),+ $(,)?) => {
        const $srcs: &[&str] = &[$($src),+];
        retina_filtergen::filter_union!($codegen, $($src),+);
    };
}

filter_set!(
    UNION4_SRCS,
    union4_codegen,
    r"tls.sni ~ '(.+?\.)?nflxvideo\.net'",
    "http",
    "dns",
    "tcp.port = 443",
);

// 32 distinct narrow packet-level filters: 12 subnet∧tcp (the
// generator's outside /8s), 8 tcp ports, 6 udp ports, 6 ttl∧port-range.
filter_set!(
    FILTER32_SRCS,
    filter32_codegen,
    "ipv4.addr in 13.0.0.0/8 and tcp",
    "ipv4.addr in 23.0.0.0/8 and tcp",
    "ipv4.addr in 34.0.0.0/8 and tcp",
    "ipv4.addr in 52.0.0.0/8 and tcp",
    "ipv4.addr in 93.0.0.0/8 and tcp",
    "ipv4.addr in 104.0.0.0/8 and tcp",
    "ipv4.addr in 142.0.0.0/8 and tcp",
    "ipv4.addr in 151.0.0.0/8 and tcp",
    "ipv4.addr in 185.0.0.0/8 and tcp",
    "ipv4.addr in 198.0.0.0/8 and tcp",
    "ipv4.addr in 203.0.0.0/8 and tcp",
    "ipv4.addr in 208.0.0.0/8 and tcp",
    "tcp.port = 22",
    "tcp.port = 23",
    "tcp.port = 25",
    "tcp.port = 80",
    "tcp.port = 443",
    "tcp.port = 993",
    "tcp.port = 3389",
    "tcp.port = 8080",
    "udp.port = 53",
    "udp.port = 67",
    "udp.port = 123",
    "udp.port = 443",
    "udp.port = 1900",
    "udp.port = 5353",
    "ipv4.ttl > 64 and tcp.port >= 32768 and tcp.port < 40000",
    "ipv4.ttl > 64 and tcp.port >= 40000 and tcp.port < 45000",
    "ipv4.ttl > 64 and tcp.port >= 45000 and tcp.port < 50000",
    "ipv4.ttl > 128 and tcp.port >= 50000 and tcp.port < 55000",
    "ipv4.ttl > 128 and tcp.port >= 55000 and tcp.port < 60000",
    "ipv4.ttl > 200 and tcp.port >= 60000",
);

filter_set!(TCP_SRCS, tcp_codegen, "tcp");
filter_set!(TLS_SRCS, tls_codegen, "tls");

const UNION4_SUBS: &[Sub] = &[
    Sub {
        name: "nflx_tls",
        filter: UNION4_SRCS[0],
        datatype: Datatype::Tls,
    },
    Sub {
        name: "http",
        filter: UNION4_SRCS[1],
        datatype: Datatype::Http,
    },
    Sub {
        name: "dns",
        filter: UNION4_SRCS[2],
        datatype: Datatype::Session,
    },
    Sub {
        name: "https_conns",
        filter: UNION4_SRCS[3],
        datatype: Datatype::ConnRecord,
    },
];

// Each is named by its own source: the sources are distinct.
const FILTER32_SUBS: [Sub; 32] = {
    let mut subs = [Sub {
        name: "",
        filter: "",
        datatype: Datatype::ZcFrame,
    }; 32];
    let mut i = 0;
    while i < 32 {
        subs[i].name = FILTER32_SRCS[i];
        subs[i].filter = FILTER32_SRCS[i];
        i += 1;
    }
    subs
};

const SCAN_SUBS: &[Sub] = &[Sub {
    name: "conns",
    filter: TCP_SRCS[0],
    datatype: Datatype::ConnRecord,
}];

const BULK_SUBS: &[Sub] = &[Sub {
    name: "streams",
    filter: TCP_SRCS[0],
    datatype: Datatype::ConnBytes,
}];

const TLS_SUBS: &[Sub] = &[Sub {
    name: "tls",
    filter: TLS_SRCS[0],
    datatype: Datatype::Tls,
}];

/// Packets in the full campus workloads.
const CAMPUS_PACKETS: usize = 400_000;
/// Packets in the scan workload (~105 k concurrent connections) and in
/// the pcap-mode workload (half the campus minute).
const SCAN_PACKETS: usize = 200_000;

/// Gives each workload its own stream from the one `--seed`, and keeps
/// seed 0 from meaning "all-zero generator state".
fn mix_seed(seed: u64, salt: u64) -> u64 {
    retina_support::hash::splitmix64(seed ^ salt)
}

/// The seeded variant of a canonical trace: every flow keeps its
/// packets, their sizes and their spacing, and the seed gives each flow
/// a new start inside `window_ns` (uniformly, as the generator itself
/// places them).
///
/// Why not simply hand the seed to the generator: its flow sizes are
/// heavy-tailed (lognormal, sigma 1.6, up to 8 MiB), so at a fixed
/// packet budget the *composition* swings from seed to seed — measured:
/// allocations per packet +-5 %, ns per packet +-6 % — and every bound
/// would have to be three times that. Pinning the composition and
/// varying the interleaving keeps what an optimisation could overfit to
/// (arrival order, table occupancy, timer-wheel slots, peak concurrency)
/// under the seed, and lets the count metrics be gated tightly.
fn retime(mut packets: Packets, seed: u64, window_ns: u64) -> Packets {
    let mut sampler = Sampler::new(seed);
    let mut shift: HashMap<ConnKey, i64> = HashMap::new();
    for (frame, ts) in &mut packets {
        let Ok(pkt) = ParsedPacket::parse(frame.as_slice()) else {
            continue; // not a flow: stays where it is
        };
        let first_seen = *ts;
        let delta = *shift
            .entry(ConnKey::from_packet(&pkt))
            .or_insert_with(|| sampler.range(0, window_ns.max(1)) as i64 - first_seen as i64);
        // A flow's first packet lands at >= 0 and the rest follow it.
        *ts = (*ts as i64 + delta) as u64;
    }
    packets.sort_by_key(|(_, ts)| *ts); // stable: equal stamps keep flow order
    packets
}

/// The campus mix of Table 2: the canonical trace is
/// `CampusConfig::default` (its own seed included) at the default
/// arrival rate of 400 k packets a minute, re-timed by `seed`.
fn campus(seed: u64, packets: usize) -> Packets {
    let secs = 60.0 * packets as f64 / CAMPUS_PACKETS as f64;
    let canonical = generate(&CampusConfig {
        target_packets: packets,
        duration_secs: secs,
        ..CampusConfig::default()
    });
    retime(canonical, mix_seed(seed, 0xCA3905), (secs * 1e9) as u64)
}

fn campus_full(seed: u64, shrink: usize) -> Packets {
    campus(seed, CAMPUS_PACKETS / shrink)
}

/// Half as much of the same mix: what the pcap-mode workload writes out
/// and reads back.
fn campus_half(seed: u64, shrink: usize) -> Packets {
    campus(seed, SCAN_PACKETS / shrink)
}

/// `churn_storm`'s scan mix (its canonical seed included): 99.5 % of
/// TCP connections are a single unanswered SYN, all inside the 5 s
/// establishment timeout, so the table must hold every probe at once.
/// Re-timed by `seed`.
fn scan(seed: u64, shrink: usize) -> Packets {
    let canonical = generate(&CampusConfig {
        seed: 0xC4A5,
        target_packets: SCAN_PACKETS / shrink,
        duration_secs: 4.0,
        tcp_frac: 0.96,
        udp_frac: 0.03,
        single_syn_frac: 0.995,
        tls_bytes_median: 2_000.0,
        ..CampusConfig::default()
    });
    retime(canonical, mix_seed(seed, 0xC4A5), 4_000_000_000)
}

/// §6.2's closed-loop HTTPS workload: 400 req/s × 256 KB × 2 s — 800
/// long flows of full-MSS segments. Its composition is fixed by
/// construction; the seed moves round-trip times and client randoms.
fn https_bulk(seed: u64, shrink: usize) -> Packets {
    HttpsWorkload {
        requests_per_sec: 400,
        response_bytes: 256 * 1024,
        parallel: 128,
        duration_secs: 2.0 / shrink as f64,
        seed: mix_seed(seed, 0xF166),
    }
    .generate()
}

/// One benchmark workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it was chosen, as in `BENCHMARK.json`.
    pub why: &'static str,
    traffic: fn(u64, usize) -> Packets,
    /// The subscription set, in registration order.
    pub subs: &'static [Sub],
    /// The driver the end-to-end repetitions time.
    pub driver: Driver,
    /// The same filter sources through `filter_union!`.
    pub codegen: fn() -> FilterUnion,
    /// Packets of this workload's traffic that the
    /// `core.offline_over_stepped` comparison replays. `run_offline`
    /// chains every connection in one bucket today (README, open problem
    /// 1), which is quadratic in connections: the scan mix is held to a
    /// prefix so the traced pass stays inside its time budget.
    pub offline_prefix: usize,
}

impl Workload {
    /// Generates the workload's traffic from `seed`. `shrink` divides
    /// the packet count (1 everywhere except the self-test).
    pub fn traffic(&self, seed: u64, shrink: usize) -> Packets {
        (self.traffic)(seed, shrink.max(1))
    }

    /// The subscriptions' filter sources, in registration order.
    pub fn filter_sources(&self) -> Vec<&'static str> {
        self.subs.iter().map(|s| s.filter).collect()
    }

    /// Builds the workload's runtime through the public builder; every
    /// callback folds into `sink`.
    ///
    /// # Panics
    /// Panics if the build is rejected: the workload's filters are part
    /// of the benchmark, so that is a bug here.
    pub fn build_runtime(
        &self,
        config: RuntimeConfig,
        sink: &Arc<Sink>,
    ) -> MultiRuntime<CompiledFilter> {
        let mut b = RuntimeBuilder::new(config);
        for sub in self.subs {
            let s = Arc::clone(sink);
            b = match sub.datatype {
                Datatype::ZcFrame => b.subscribe_named(sub.name, sub.filter, move |f: ZcFrame| {
                    s.note(f.data().len() as u64);
                }),
                Datatype::ConnRecord => {
                    b.subscribe_named(sub.name, sub.filter, move |r: ConnRecord| {
                        s.note(r.pkts_up + r.pkts_down + r.total_bytes());
                    })
                }
                Datatype::ConnBytes => {
                    b.subscribe_named(sub.name, sub.filter, move |c: ConnBytes| {
                        s.note((c.client_stream.len() + c.server_stream.len()) as u64);
                    })
                }
                Datatype::Tls => {
                    b.subscribe_named(sub.name, sub.filter, move |hs: TlsHandshakeData| {
                        s.note(tls_value(&hs));
                    })
                }
                Datatype::Http => {
                    b.subscribe_named(sub.name, sub.filter, move |t: HttpTransactionData| {
                        s.note(t.http.uri.len() as u64 + u64::from(t.http.status));
                    })
                }
                Datatype::Session => {
                    b.subscribe_named(sub.name, sub.filter, move |r: SessionRecord| {
                        s.note(u64::from(r.tuple.orig.port()) + u64::from(r.tuple.resp.port()));
                    })
                }
            };
        }
        b.build()
            .unwrap_or_else(|e| panic!("workload {}: runtime build rejected: {e}", self.name))
    }
}

/// The `tls`→`TlsHandshakeData` subscription on its own: what
/// `run_offline` is compared against a stepped run with, on any
/// workload's traffic.
pub fn tls_only() -> &'static Workload {
    &WORKLOADS[4]
}

/// Callback for `run_offline::<TlsHandshakeData, _>` folding into
/// `sink` exactly as the `Datatype::Tls` runtime callback does.
pub fn tls_offline_callback(sink: &Sink) -> impl FnMut(TlsHandshakeData) + '_ {
    move |hs| sink.note(tls_value(&hs))
}

/// The workloads, in `BENCHMARK.json` order.
pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "campus_union4",
        why: "multi-tenant default: campus mix x 4-sub union (tls.sni regex, http, dns, \
              tcp.port=443); every layer works in Fig. 7 proportions, so no layer hides the rest",
        traffic: campus_full,
        subs: UNION4_SUBS,
        driver: Driver::Stepped,
        codegen: union4_codegen,
        offline_prefix: SCAN_PACKETS,
    },
    Workload {
        name: "campus_filter32",
        why: "same campus packets x 32 narrow packet-level ZcFrame filters: wire parse, the \
              merged filter trie and bypass delivery do all the work; conntrack is never reached",
        traffic: campus_full,
        subs: &FILTER32_SUBS,
        driver: Driver::Stepped,
        codegen: filter32_codegen,
        offline_prefix: SCAN_PACKETS,
    },
    Workload {
        name: "scan_churn_conn",
        why: "99.5% single-SYN scan mix x tcp->ConnRecord: conntrack insert, timer wheel, arena \
              and expiry at a 100k-connection working set; parsers idle; the memory metrics live here",
        traffic: scan,
        subs: SCAN_SUBS,
        driver: Driver::Stepped,
        codegen: tcp_codegen,
        offline_prefix: 20_000,
    },
    Workload {
        name: "https_bulk_bytes",
        why: "800 long 256 KB TLS flows x tcp->ConnBytes: conntrack is all lookup hits on a tiny \
              table, reassembly sees ~all packets and stream bytes are copied",
        traffic: https_bulk,
        subs: BULK_SUBS,
        driver: Driver::Stepped,
        codegen: tcp_codegen,
        offline_prefix: SCAN_PACKETS,
    },
    Workload {
        name: "campus_tls_offline",
        why: "200k campus packets through an in-memory pcap x tls->TlsHandshakeData via \
              run_offline: the pcap-mode driver, the third copy of the per-packet loop",
        traffic: campus_half,
        subs: TLS_SUBS,
        driver: Driver::Offline,
        codegen: tls_codegen,
        offline_prefix: SCAN_PACKETS,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        for w in &WORKLOADS {
            let a = w.traffic(7, 40);
            let b = w.traffic(7, 40);
            assert!(!a.is_empty(), "{}", w.name);
            assert_eq!(a.len(), b.len(), "{}", w.name);
            assert!(a.iter().zip(&b).all(|(x, y)| x == y), "{}", w.name);
            let c = w.traffic(8, 40);
            assert!(a.iter().zip(&c).any(|(x, y)| x != y), "{}", w.name);
        }
    }

    #[test]
    fn filter32_subs_are_distinct_and_packet_level() {
        let mut srcs = FILTER32_SRCS.to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 32);
        assert!(FILTER32_SUBS
            .iter()
            .all(|s| s.datatype == Datatype::ZcFrame && s.name == s.filter));
    }

    #[test]
    fn every_workload_builds_and_codegen_agrees_on_sub_count() {
        use retina_filter::FilterFns;
        for w in &WORKLOADS {
            let sink = Arc::new(Sink::default());
            let _ = w.build_runtime(RuntimeConfig::default(), &sink);
            assert_eq!(
                (w.codegen)().num_subscriptions(),
                w.subs.len(),
                "{}",
                w.name
            );
        }
    }
}
